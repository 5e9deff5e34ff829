package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"aims/internal/stream"
)

// binMoments returns Σ1, Σbin, Σbin² over span, a run of whole rows of vb
// value bins each, folded in float64 cell by cell. It is the exact scan
// the row-moment cache replaced, kept here as the reference every exact
// answer must match bit for bit.
func binMoments(span []uint32, vb int) (n, sum, sumSq float64) {
	for ; len(span) > 0; span = span[vb:] {
		for bin, cnt := range span[:vb] {
			if cnt == 0 {
				continue
			}
			fc := float64(cnt)
			fb := float64(bin)
			n += fc
			sum += fc * fb
			sumSq += fc * fb * fb
		}
	}
	return n, sum, sumSq
}

// counts returns a copy of the cube widened to 32 bits, whatever the
// store's width.
func (ls *LiveStore) counts() []uint32 {
	out := make([]uint32, ls.cells())
	switch {
	case ls.c4 != nil:
		unpack(out, ls.c4)
	case ls.c8 != nil:
		convert(out, ls.c8)
	case ls.c16 != nil:
		convert(out, ls.c16)
	default:
		convert(out, ls.c32)
	}
	return out
}

// exactOpsCfg is the store the op interpreter drives: 2 channels on an
// 8-bucket × 8-bin cube, 8 ticks per bucket, so a few dozen frames touch
// every bucket and ticks past 64 clamp into the last one.
var exactOpsCfg = LiveStoreConfig{Rate: 100, TimeBuckets: 8, ValueBins: 8, HorizonTicks: 64}

// opBytes hands out the interpreter's input a byte at a time, 0 once spent.
type opBytes struct{ p []byte }

func (b *opBytes) next() int {
	if len(b.p) == 0 {
		return 0
	}
	v := b.p[0]
	b.p = b.p[1:]
	return int(v)
}

// tick draws a device tick in [-16, 240): negative ones are skipped by
// every append, ones at 64 and past clamp into the last bucket.
func (b *opBytes) tick() int { return b.next() - 16 }

// value draws a sample in [-1.28, 1.27], clamping past the [-1, 1] range.
func (b *opBytes) value() float64 { return float64(b.next()-128) / 100 }

// seconds draws a query bound in [-0.08, 0.88) s, past the 0.64 s horizon.
func (b *opBytes) seconds() float64 { return float64(b.next()%96-8) / 100 }

// runExactOps interprets p as a sequence of LiveStore operations — a
// one-frame AppendFrames, a batch through AppendFrames and one binned from
// its wire encoding and stored with AppendBins, the server's path
// (negative and past-horizon ticks included), a burst of up to 510 copies
// of one frame at one tick, enough to widen the cube past 8 bits, binned
// and stored the same way, Seal followed by every channel's approximate
// and progressive COUNT, whose cube walk must answer as the sealed engine
// does (sameApproxAnswers), and AppendSnapshot → ReadSnapshot with later
// ops on the decoded store, whose snapshot must be the original's — and
// after every step checks the exact aggregates of every channel, over the
// whole range and over one drawn window, against binMoments over the
// cube. A frame is stored exactly when its drawn tick is not negative.
func runExactOps(t *testing.T, p []byte) {
	t.Helper()
	ls, err := NewLiveStore([]float64{-1, -1}, []float64{1, 1}, exactOpsCfg)
	if err != nil {
		t.Fatal(err)
	}
	in := &opBytes{p}
	frames := 0
	// binAndStore stores body's encoded frames as the server does: binned
	// once, then counted from the record.
	binAndStore := func(body []byte) int {
		rec, kept := ls.Bin(body, nil)
		n, err := ls.AppendBins(rec)
		if err != nil || n != kept {
			t.Fatalf("AppendBins stored %d of the %d Bin kept: %v", n, kept, err)
		}
		return n
	}
	for step := 0; len(in.p) > 0; step++ {
		switch op := in.next() % 6; op {
		case 0:
			tick := in.tick()
			f := stream.Frame{T: float64(tick) / exactOpsCfg.Rate, Values: []float64{in.value(), in.value()}}
			n, err := ls.AppendFrames([]stream.Frame{f})
			if (n == 1) != (tick >= 0) || (err == nil) != (tick >= 0) {
				t.Fatalf("step %d: a frame at tick %d stored %d: %v", step, tick, n, err)
			}
			frames += n
		case 1, 2:
			batch := make([]stream.Frame, 1+in.next()%8)
			var body []byte
			want := 0
			for i := range batch {
				tick := in.tick()
				batch[i] = stream.Frame{T: float64(tick) / exactOpsCfg.Rate, Values: []float64{in.value(), in.value()}}
				if tick >= 0 {
					want++
				}
				for _, v := range append([]float64{batch[i].T}, batch[i].Values...) {
					body = binary.LittleEndian.AppendUint64(body, math.Float64bits(v))
				}
			}
			var n int
			if op == 1 {
				n, _ = ls.AppendFrames(batch)
			} else {
				n = binAndStore(body)
			}
			if n != want {
				t.Fatalf("step %d: stored %d of %d frames, want %d", step, n, len(batch), want)
			}
			frames += n
		case 3:
			st, err := ls.Seal()
			if err != nil {
				t.Fatalf("step %d: seal: %v", step, err)
			}
			for ch := 0; ch < ls.Channels(); ch++ {
				sameApproxAnswers(t, fmt.Sprintf("step %d", step), ls, st, ch, 0, 1e9)
				sameApproxAnswers(t, fmt.Sprintf("step %d", step), ls, st, ch, 0.1, 0.3)
			}
		case 4:
			snap := ls.AppendSnapshot(nil)
			if ls, err = ReadSnapshot(snap, exactOpsCfg); err != nil {
				t.Fatalf("step %d: snapshot: %v", step, err)
			}
			if !bytes.Equal(ls.AppendSnapshot(nil), snap) {
				t.Fatalf("step %d: the decoded store snapshots to other bytes than the store it was read from", step)
			}
		case 5:
			tick, n := in.tick(), 2*in.next()
			frame := []float64{float64(tick) / exactOpsCfg.Rate, in.value(), in.value()}
			var body []byte
			for i := 0; i < n; i++ {
				for _, v := range frame {
					body = binary.LittleEndian.AppendUint64(body, math.Float64bits(v))
				}
			}
			want := 0
			if tick >= 0 {
				want = n
			}
			if got := binAndStore(body); got != want {
				t.Fatalf("step %d: burst stored %d of %d frames, want %d", step, got, n, want)
			}
			frames += want
		}
		if ls.Frames() != frames {
			t.Fatalf("step %d: %d frames stored, want %d", step, ls.Frames(), frames)
		}
		t0, t1 := in.seconds(), in.seconds()
		for ch := 0; ch < ls.Channels(); ch++ {
			checkExact(t, step, ls, ch, 0, 1e9)
			checkExact(t, step, ls, ch, t0, t1)
		}
	}
}

// checkExact fails unless CountSamples, AverageValue, VarianceValue and
// Summarize of channel ch over [t0, t1] are bit-identical to the decode of
// binMoments over the cube.
func checkExact(t *testing.T, step int, ls *LiveStore, ch int, t0, t1 float64) {
	t.Helper()
	lo, hi := ls.timeRange(t0, t1)
	base := ch * ls.cfg.TimeBuckets
	vb := ls.cfg.ValueBins
	n, sum, sumSq := binMoments(ls.counts()[(base+lo)*vb:(base+hi+1)*vb], vb)
	q := ls.quant[ch]
	min, width := q.Min, q.Step()
	var wantAvg, wantVar float64
	if n > 0 {
		mean := sum / n
		wantAvg = min + mean*width
		wantVar = (sumSq/n - mean*mean) * width * width
	}
	same := func(what string, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("step %d ch %d [%v, %v]: %s %v, want %v", step, ch, t0, t1, what, got, want)
		}
	}
	count, err := ls.CountSamples(ch, t0, t1)
	if err != nil {
		t.Fatal(err)
	}
	same("count", count, n)
	avg, ok, err := ls.AverageValue(ch, t0, t1)
	if err != nil || ok != (n > 0) {
		t.Fatalf("step %d ch %d: average ok=%v err=%v with n=%v", step, ch, ok, err, n)
	}
	same("average", avg, wantAvg)
	v, ok, err := ls.VarianceValue(ch, t0, t1)
	if err != nil || ok != (n > 0) {
		t.Fatalf("step %d ch %d: variance ok=%v err=%v with n=%v", step, ch, ok, err, n)
	}
	same("variance", v, wantVar)
	s, frames, err := ls.Summarize(ch, t0, t1)
	if err != nil {
		t.Fatal(err)
	}
	if frames != uint64(ls.Frames()) {
		t.Fatalf("step %d: watermark %d, want %d", step, frames, ls.Frames())
	}
	same("summary N", s.N, n)
	same("summary Σv", s.Sum, n*min+width*sum)
	same("summary Σv²", s.SumSq, n*min*min+2*min*width*sum+width*width*sumSq)
}

// TestLiveStoreExactMomentsProperty drives random op sequences through
// runExactOps: after every append, seal and snapshot round trip, each
// exact answer is bit-identical to a float fold over the cube cells, and
// after each seal every approximate answer to the sealed engine's.
func TestLiveStoreExactMomentsProperty(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := make([]byte, 40+rng.Intn(400))
		rng.Read(p)
		runExactOps(t, p)
	}
}

// FuzzLiveStoreExactMoments feeds fuzz bytes through runExactOps. The
// checked-in corpus (testdata/fuzz/FuzzLiveStoreExactMoments) seeds each
// append kind, past-horizon and negative ticks, a snapshot round trip
// followed by queries and appends into the rows those queries cached,
// bursts that widen the cube before a seal and a round trip, a decoded
// 4-bit cube that a burst widens to 8 bits, and approximate answers
// checked at every width from 4 to 16 bits, across incremental seals and a
// round trip.
func FuzzLiveStoreExactMoments(f *testing.F) {
	f.Fuzz(func(t *testing.T, p []byte) {
		if len(p) > 4096 {
			return
		}
		runExactOps(t, p)
	})
}

// TestRowCurrencyPerBucket: a frame landing in a bucket makes every
// channel's cached row of that bucket stale, not only the row of the
// channel last queried. Channel 0 is queried over bucket 1, a frame lands
// in bucket 1, channel 0 is queried again, and channel 1 must then see the
// frame too.
func TestRowCurrencyPerBucket(t *testing.T) {
	ls, err := NewLiveStore([]float64{-1, -1}, []float64{1, 1}, exactOpsCfg)
	if err != nil {
		t.Fatal(err)
	}
	const t0, t1 = 0.08, 0.15 // bucket 1: ticks 8 to 15
	if err := appendAt(ls, 10, []float64{-0.5, -0.5}); err != nil {
		t.Fatal(err)
	}
	checkExact(t, 0, ls, 0, t0, t1)
	if err := appendAt(ls, 12, []float64{0.5, 0.9}); err != nil {
		t.Fatal(err)
	}
	checkExact(t, 1, ls, 0, t0, t1)
	checkExact(t, 1, ls, 1, t0, t1)
}

// warmGlove returns a 28-channel glove-sized store holding 6 000 frames,
// one per tick over its first 250 buckets, every row already cached.
func warmGlove(tb testing.TB) *LiveStore {
	mins, maxs := gloveRange(28)
	ls, err := NewLiveStore(mins, maxs, LiveStoreConfig{})
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	frame := make([]float64, 28)
	for i := 0; i < 6000; i++ {
		for c := range frame {
			frame[c] = mins[c] + rng.Float64()*(maxs[c]-mins[c])
		}
		if err := appendAt(ls, i, frame); err != nil {
			tb.Fatal(err)
		}
	}
	for ch := 0; ch < 28; ch++ {
		if _, _, err := ls.Summarize(ch, 0, 1e9); err != nil {
			tb.Fatal(err)
		}
	}
	return ls
}

// TestSummarizeAllocatesNothing pins the exact scan at zero allocations on
// a warm store: it sums cached rows and copies nothing out of the cube.
func TestSummarizeAllocatesNothing(t *testing.T) {
	ls := warmGlove(t)
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := ls.Summarize(3, 0, 60); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Summarize allocated %v times per call, want 0", allocs)
	}
}

var summarySink Summary

// BenchmarkSummarize times one exact whole-session scan of a glove store:
// "warm" with every row cached (an idle session), "head-dirty" with a
// frame appended into the head bucket before each scan (a live one), so
// that row is rescanned every time.
func BenchmarkSummarize(b *testing.B) {
	frame := make([]float64, 28)
	for _, dirty := range []bool{false, true} {
		name := "warm"
		if dirty {
			name = "head-dirty"
		}
		b.Run(name, func(b *testing.B) {
			ls := warmGlove(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if dirty {
					if err := appendAt(ls, 5999, frame); err != nil {
						b.Fatal(err)
					}
				}
				s, _, err := ls.Summarize(3, 0, 60)
				if err != nil {
					b.Fatal(err)
				}
				summarySink = s
			}
		})
	}
}

// TestLiveStoreWidens piles frames past the horizon into the last bucket
// until a cell passes 15, 255 and then 65 535. The crossing from 4 to 8
// bits is made once through each append path: frame by frame and as one
// batch through AppendFrames, and as the batch's wire encoding binned
// (Bin) and stored with AppendBins; the ladder through 16 and 32 bits runs
// once, its steps taken through every path. At each step every exact
// answer is bit-identical to binMoments over the widened cube, an
// incremental seal after the widen estimates what a store that rebuilds
// every seal estimates, and the store read back from its snapshot comes
// back at the store's width and keeps answering after one more frame.
func TestLiveStoreWidens(t *testing.T) {
	for _, via := range []string{"frame", "frames", "encoded"} {
		t.Run("nibbles-via-"+via, func(t *testing.T) {
			testLiveStoreWidens(t, 8, []widenStep{{6, "encoded"}, {2, via}})
		})
	}
	t.Run("ladder", func(t *testing.T) {
		testLiveStoreWidens(t, 16, []widenStep{
			{255 - 16, "encoded"},
			{1, "frame"},
			{65535 - 256, "encoded"},
			{1, "frames"},
			{300, "encoded"},
		})
	})
}

// widenStep appends n frames through one append path: "frame" (one
// AppendFrames a frame), "frames" (one AppendFrames) or "encoded" (Bin,
// then AppendBins).
type widenStep struct {
	n   int
	via string
}

// testLiveStoreWidens is one run of TestLiveStoreWidens: it piles first
// frames and seals, then takes and checks each step.
func testLiveStoreWidens(t *testing.T, first int, steps []widenStep) {
	cfg := exactOpsCfg
	cfg.SealDeltaThreshold = 1 << 20 // every seal here replays its log
	var incremental bool
	cfg.SealObserver = func(_ time.Duration, inc bool, _ int) { incremental = inc }
	mins, maxs := []float64{-1, -1}, []float64{1, 1}
	ls, err := NewLiveStore(mins, maxs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	refCfg := exactOpsCfg
	refCfg.SealDeltaThreshold = -1 // reference: every seal rebuilds
	ref, err := NewLiveStore(mins, maxs, refCfg)
	if err != nil {
		t.Fatal(err)
	}
	cells := int64(ls.cells())
	stored := 0
	// pile appends n frames at tick 100, past the 64-tick horizon, to both
	// stores. Channel 0 always reads 0.5, so one of its cells counts every
	// frame of the bucket; channel 1 spreads over three bins.
	pile := func(n int, via string) {
		t.Helper()
		frames := make([]stream.Frame, n)
		var body []byte
		for i := range frames {
			frames[i] = stream.Frame{T: 1, Values: []float64{0.5, float64((stored+i)%3)/4 - 0.25}}
			for _, v := range append([]float64{1}, frames[i].Values...) {
				body = binary.LittleEndian.AppendUint64(body, math.Float64bits(v))
			}
		}
		for _, s := range []*LiveStore{ls, ref} {
			var got int
			switch via {
			case "frame":
				for _, f := range frames {
					if err := appendAt(s, 100, f.Values); err != nil {
						t.Fatal(err)
					}
					got++
				}
			case "frames":
				got, err = s.AppendFrames(frames)
			case "encoded":
				rec, _ := s.Bin(body, nil)
				got, err = s.AppendBins(rec)
			}
			if err != nil || got != n {
				t.Fatalf("%s: stored %d of %d frames: %v", via, got, n, err)
			}
		}
		stored += n
	}
	// cubeBytes is the cube a bucket of n frames needs.
	cubeBytes := func(n int) int64 {
		switch {
		case n > 65535:
			return 4 * cells
		case n > 255:
			return 2 * cells
		case n > 15:
			return cells
		}
		return cells / 2
	}
	windows := [][2]float64{{0, 1e9}, {0, 0.5}, {0.56, 1e9}}
	check := func(what string, s *LiveStore, frames int) {
		t.Helper()
		if got, want := s.Footprint().Cube, cubeBytes(frames); got != want {
			t.Fatalf("%s: cube of %d B, want %d", what, got, want)
		}
		for ch := 0; ch < s.Channels(); ch++ {
			for _, w := range windows {
				checkExact(t, 0, s, ch, w[0], w[1])
			}
		}
	}
	pile(first, "frames")
	if _, err := ls.Seal(); err != nil {
		t.Fatal(err)
	}
	for _, st := range steps {
		pile(st.n, st.via)
		what := fmt.Sprintf("%d frames", stored)
		check(what, ls, stored)
		inc, err := ls.Seal()
		if err != nil {
			t.Fatal(err)
		}
		if !incremental {
			t.Fatalf("%s: seal rebuilt, want a delta replay", what)
		}
		want, err := ref.Seal()
		if err != nil {
			t.Fatal(err)
		}
		for ch := 0; ch < 2; ch++ {
			for _, w := range windows {
				a, ab, err := inc.ApproximateCount(ch, w[0], w[1], 1<<20)
				if err != nil {
					t.Fatal(err)
				}
				b, bb, err := want.ApproximateCount(ch, w[0], w[1], 1<<20)
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(a-b) > 1e-9*(1+math.Abs(b)) || math.Abs(ab-bb) > 1e-9*(1+math.Abs(bb)) {
					t.Fatalf("%s ch %d %v: incremental seal %v±%v, rebuild %v±%v", what, ch, w, a, ab, b, bb)
				}
			}
		}
		restored, err := ReadSnapshot(ls.AppendSnapshot(nil), exactOpsCfg)
		if err != nil {
			t.Fatal(err)
		}
		check(what+", restored", restored, stored)
		if err := appendAt(restored, 100, []float64{0.5, 0}); err != nil {
			t.Fatal(err)
		}
		check(what+", restored, one more", restored, stored+1)
	}
}
