package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"aims/internal/compress"
	"aims/internal/sensors"
	"aims/internal/stream"
	"aims/internal/synth"
)

// benchInputs are the capacity benchmark's seeded recordings — the
// 28-channel glove and the 8-channel Virtual-Classroom tracker — with each
// channel's range padded 5 %, as the benchmark registers them.
func benchInputs() map[string][][]float64 {
	glove := sensors.NewDevice(sensors.GloveSpecs(), sensors.DefaultClock, 1.0, 1000)
	tracker := synth.GenerateSession(synth.Subject{Seed: 1000}, 1024).Frames
	out := map[string][][]float64{"glove": nil, "tracker": nil}
	for i := 0; i < 1024; i++ {
		out["glove"] = append(out["glove"], glove.Frame(i))
		out["tracker"] = append(out["tracker"], tracker[i][:8:8])
	}
	return out
}

// paddedRanges returns each channel's observed range padded 5 %.
func paddedRanges(frames [][]float64) (mins, maxs []float64) {
	for c := range frames[0] {
		lo, hi := frames[0][c], frames[0][c]
		for _, fr := range frames {
			lo, hi = math.Min(lo, fr[c]), math.Max(hi, fr[c])
		}
		span := hi - lo
		mins, maxs = append(mins, lo-0.05*span), append(maxs, hi+0.05*span)
	}
	return mins, maxs
}

// edgeFrames returns frames carrying, channel by channel, every value a
// bin could be got wrong on — each bin edge of quant and one ulp either
// side of it, both range ends, values beyond them, ±Inf and NaN — stamped
// with ticks running on from tick, and among them frames at negative, NaN
// and past-the-horizon timestamps. The other channels carry base's values.
func edgeFrames(quant []compress.Quantizer, base [][]float64, tick int, rng *rand.Rand) (ts []float64, frames [][]float64) {
	for c, q := range quant {
		top := float64(q.Levels() - 1)
		var vals []float64
		for l := 0.0; l < top; l++ {
			edge := q.Min + (l+0.5)/top*(q.Max-q.Min)
			vals = append(vals, edge, math.Nextafter(edge, math.Inf(-1)), math.Nextafter(edge, math.Inf(1)))
		}
		vals = append(vals, q.Min, q.Max, q.Min-1, q.Max+1, -1e300, 1e300, math.Inf(1), math.Inf(-1), math.NaN())
		for _, v := range vals {
			fr := append([]float64(nil), base[rng.Intn(len(base))]...)
			fr[c] = v
			var t float64
			switch rng.Intn(16) {
			case 0:
				t = -float64(1+rng.Intn(50)) / 100
			case 1:
				t = math.NaN()
			case 2:
				t = [...]float64{1e9, 1e19, math.MaxFloat64, math.Inf(1), math.Inf(-1)}[rng.Intn(5)]
			default:
				t = float64(tick) / 100
				tick += rng.Intn(3)
			}
			ts, frames = append(ts, t), append(frames, fr)
		}
	}
	return ts, frames
}

// encode is the wire encoding of frames stamped ts.
func encode(ts []float64, frames [][]float64) []byte {
	var body []byte
	for i, fr := range frames {
		body = binary.LittleEndian.AppendUint64(body, math.Float64bits(ts[i]))
		for _, v := range fr {
			body = binary.LittleEndian.AppendUint64(body, math.Float64bits(v))
		}
	}
	return body
}

// TestFrameBucketDecidesOnTheFloat pins where a frame's timestamp puts it,
// the same on every platform: a timestamp that is NaN or ±Inf, or whose
// tick is negative, is skipped, and every finite one past the horizon —
// however large, even where its tick overflows to +Inf — clamps into the
// last bucket. Under GOARCH=386, where int holds 32 bits, a conversion
// made before the range check skipped T = 1e9 s at 100 Hz.
func TestFrameBucketDecidesOnTheFloat(t *testing.T) {
	ls, err := NewLiveStore([]float64{-1}, []float64{1}, LiveStoreConfig{
		Rate: 100, TimeBuckets: 64, ValueBins: 32, HorizonTicks: 6400,
	})
	if err != nil {
		t.Fatal(err)
	}
	last := uint32(63)
	for _, c := range []struct {
		t    float64
		want uint32
		err  string
	}{
		{0, 0, ""},
		{-0.004, 0, ""}, // tick −0.4 rounds half up to 0
		{-0.01, skipBucket, "negative tick"},
		{63.99, last, ""}, // the horizon's last tick, 6 399
		{64, last, ""},
		{1e9, last, ""},
		{1e15, last, ""},
		{1e19, last, ""},
		{math.MaxFloat64, last, ""},
		{-math.MaxFloat64, skipBucket, "negative tick"},
		{math.Inf(1), skipBucket, "no finite timestamp"},
		{math.Inf(-1), skipBucket, "no finite timestamp"},
		{math.NaN(), skipBucket, "no finite timestamp"},
	} {
		if got := ls.binner.frameBucket(c.t); got != c.want {
			t.Errorf("T = %v s: bucket %d, want %d", c.t, got, c.want)
		}
		stored, err := ls.AppendFrames([]stream.Frame{{T: c.t, Values: []float64{0}}})
		if c.err == "" {
			if stored != 1 || err != nil {
				t.Errorf("T = %v s: stored %d (%v), want 1", c.t, stored, err)
			}
		} else if stored != 0 || err == nil || !strings.Contains(err.Error(), c.err) {
			t.Errorf("T = %v s: stored %d, error %v; want 0 and %q", c.t, stored, err, c.err)
		}
	}
}

// TestBinsRecordIsAppendFrames pins the bins record of a batch's wire
// encoding to the decoded frames' path: over the benchmark's glove and
// tracker recordings, with every edge value edgeFrames makes and negative,
// NaN, infinite and past-horizon timestamps, at cube widths 4, 8, 16 and 32
// and at 64 and 512 value bins (one-byte and two-byte cells), a store fed
// AppendBins(Bin(body)) batch by batch and one fed AppendFrames(frames)
// store the same frames and snapshot to the same bytes, and both hold
// exactly the cube a fold of compress.Quantize over the frames builds.
func TestBinsRecordIsAppendFrames(t *testing.T) {
	for name, recording := range benchInputs() {
		mins, maxs := paddedRanges(recording)
		for _, bins := range []int{64, 512} {
			for _, width := range []int{4, 8, 16, 32} {
				what := fmt.Sprintf("%s, %d bins, %d-bit cube", name, bins, width)
				cfg := LiveStoreConfig{Rate: 100, TimeBuckets: 64, ValueBins: bins, HorizonTicks: 64 * 10}
				if width > 4 {
					cfg.HorizonTicks = 64 * 24
				}
				fill := map[int]uint64{4: 0, 8: 0, 16: 256, 32: 1 << 16}[width]
				quant, cfg, err := liveQuantizers(mins, maxs, cfg)
				if err != nil {
					t.Fatal(err)
				}
				a, err := newLiveStore(quant, cfg, fill)
				if err != nil {
					t.Fatal(err)
				}
				b, _ := newLiveStore(quant, cfg, fill)
				if a.width() != width {
					t.Fatalf("%s: the store starts at %d bits", what, a.width())
				}
				rng := rand.New(rand.NewSource(int64(bins + width)))
				ts, frames := edgeFrames(quant, recording, 0, rng)
				for i := range recording {
					ts, frames = append(ts, float64(len(ts)+i)/100), append(frames, recording[i])
				}
				want := make([]uint32, a.cells())
				for i, fr := range frames {
					// The rule: a frame whose timestamp is not finite, or whose
					// tick — its timestamp times the rate rounded half up — is
					// negative, is skipped; any other lands in its tick's
					// bucket, every tick past the horizon in the last one.
					x := math.Floor(ts[i]*cfg.Rate + 0.5)
					if math.IsNaN(ts[i]) || math.IsInf(ts[i], 0) || x < 0 {
						continue
					}
					tb := int(math.Min(math.Floor(x/float64(a.TicksPerBucket())), float64(cfg.TimeBuckets-1)))
					for c, v := range fr {
						want[(c*cfg.TimeBuckets+tb)*bins+quant[c].Quantize(v)]++
					}
				}
				var rec []byte
				for lo := 0; lo < len(frames); {
					hi := min(lo+1+rng.Intn(300), len(frames))
					batch := make([]stream.Frame, hi-lo)
					for i := range batch {
						batch[i] = stream.Frame{T: ts[lo+i], Values: frames[lo+i]}
					}
					na, _ := a.AppendFrames(batch)
					var kept int
					rec, kept = b.Bin(encode(ts[lo:hi], frames[lo:hi]), rec[:0])
					nb, err := b.AppendBins(rec)
					if err != nil || na != nb || nb != kept {
						t.Fatalf("%s: AppendFrames stored %d, AppendBins %d of the %d Bin kept (%v)", what, na, nb, kept, err)
					}
					lo = hi
				}
				if a.Frames() != b.Frames() || a.Frames() == 0 {
					t.Fatalf("%s: %d frames against %d", what, a.Frames(), b.Frames())
				}
				if !bytes.Equal(a.AppendSnapshot(nil), b.AppendSnapshot(nil)) {
					t.Fatalf("%s: the two stores snapshot to different bytes", what)
				}
				for i, n := range b.counts() {
					if n != want[i] {
						t.Fatalf("%s: cell %d holds %d, Quantize puts %d there", what, i, n, want[i])
					}
				}
				if b.width() < width {
					t.Fatalf("%s: the cube narrowed to %d bits", what, b.width())
				}
			}
		}
	}
}

// TestCheckBinsRefusesMalformedRecords: every way a record can disagree
// with the store's shape or with its own length is refused whole, and the
// store is left as it was.
func TestCheckBinsRefusesMalformedRecords(t *testing.T) {
	ls := newLive(t, 2) // 64 buckets, 32 bins
	good, stored := ls.Bin(encode([]float64{0.01, -1, 0.02, 5}, [][]float64{{1, 2}, {3, 4}, {5, 6}, {7, 8}}), nil)
	if stored != 3 {
		t.Fatalf("Bin kept %d of 4 frames, want 3", stored)
	}
	le := binary.LittleEndian
	record := func(frames uint32, runs [][2]uint32, cells ...byte) []byte {
		rec := le.AppendUint32(nil, frames)
		for _, r := range runs {
			rec = le.AppendUint32(le.AppendUint32(rec, r[0]), r[1])
		}
		return append(rec, cells...)
	}
	cases := map[string][]byte{
		"empty":                  nil,
		"frame count only":       record(1, nil),
		"count past any batch":   record(maxBinsFrames+1, [][2]uint32{{0, maxBinsFrames + 1}}),
		"huge count, short body": record(1<<20, [][2]uint32{{0, 1}}, 1, 2),
		"empty run":              record(1, [][2]uint32{{0, 0}, {1, 1}}, 1, 2),
		"run past the count":     record(1, [][2]uint32{{0, 2}}, 1, 2, 3, 4),
		"bucket past the cube":   record(1, [][2]uint32{{64, 1}}, 1, 2),
		"split run":              record(2, [][2]uint32{{3, 1}, {3, 1}}, 1, 2, 3, 4),
		"bin past the cube":      record(1, [][2]uint32{{0, 1}}, 1, 32),
		"cell missing":           record(1, [][2]uint32{{0, 1}}, 1),
		"cell trailing":          record(1, [][2]uint32{{0, 1}}, 1, 2, 3),
		"skipped frame's cells":  record(1, [][2]uint32{{skipBucket, 1}}, 1, 2),
		"truncated":              good[:len(good)-1],
	}
	for name, rec := range cases {
		if _, _, err := ls.Binner().CheckBins(rec); err == nil {
			t.Errorf("%s: checked", name)
		}
		if n, err := ls.AppendBins(rec); err == nil || n != 0 || ls.Frames() != 0 {
			t.Errorf("%s: stored %d, err %v", name, n, err)
		}
	}
	// Refusing a record claiming 2^20 frames allocates its error and
	// nothing sized from the count.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 100; i++ {
		ls.Binner().CheckBins(cases["huge count, short body"])
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / 100; per > 256 {
		t.Errorf("refusing a record allocated %d B, want no more than its error", per)
	}
	if n, err := ls.AppendBins(good); err != nil || n != 3 {
		t.Fatalf("the well-formed record: stored %d, err %v", n, err)
	}
}

// TestTrimBinsDropsTheCoveredPrefix: the record of a batch past its first
// k frames is the record of the batch's last frames, for every k.
func TestTrimBinsDropsTheCoveredPrefix(t *testing.T) {
	ls := newLive(t, 3)
	rng := rand.New(rand.NewSource(7))
	var ts []float64
	var frames [][]float64
	for i := 0; i < 60; i++ {
		t := float64(i*7) / 100
		if rng.Intn(5) == 0 {
			t = -1
		}
		ts, frames = append(ts, t), append(frames, []float64{rng.Float64()*20 - 10, rng.Float64(), -rng.Float64()})
	}
	whole, _ := ls.Bin(encode(ts, frames), nil)
	for k := 0; k <= len(frames); k++ {
		want, _ := ls.Bin(encode(ts[k:], frames[k:]), nil)
		if got := ls.Binner().TrimBins(whole, k, nil); !bytes.Equal(got, want) {
			t.Fatalf("trimmed by %d: % x, want % x", k, got, want)
		}
	}
}
