package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"slices"
	"testing"

	"aims/internal/stream"
)

// burst appends n frames at device tick tick, values drawn from i so the
// frames spread over the value bins, binned from their wire records and
// stored as the server stores them.
func burst(t testing.TB, ls *LiveStore, tick, n int) {
	t.Helper()
	var body []byte
	for i := 0; i < n; i++ {
		body = binary.LittleEndian.AppendUint64(body, math.Float64bits(float64(tick)/ls.cfg.Rate))
		for c := 0; c < ls.Channels(); c++ {
			v := math.Sin(float64(i)/7 + float64(c))
			body = binary.LittleEndian.AppendUint64(body, math.Float64bits(v))
		}
	}
	rec, _ := ls.Bin(body, nil)
	if stored, err := ls.AppendBins(rec); err != nil || stored != n {
		t.Fatalf("burst of %d at tick %d stored %d: %v", n, tick, stored, err)
	}
}

// snapshotCase is one store the snapshot tests encode: its config, the
// bursts that fill it, and the cell width they leave it at.
type snapshotCase struct {
	name   string
	cfg    LiveStoreConfig
	bursts [][2]int // tick, frames
	width  int
}

// nibbleCfg has 8 ticks a bucket, so its cube starts at 4 bits; wideCfg
// has 24, so its cube starts at 8.
var (
	nibbleCfg = LiveStoreConfig{Rate: 100, TimeBuckets: 8, ValueBins: 8, HorizonTicks: 64}
	wideCfg   = LiveStoreConfig{Rate: 100, TimeBuckets: 8, ValueBins: 8, HorizonTicks: 192}
)

var snapshotCases = []snapshotCase{
	{"empty", nibbleCfg, nil, 4},
	{"4-bit", nibbleCfg, [][2]int{{0, 3}, {9, 5}, {40, 15}}, 4},
	{"8-bit", nibbleCfg, [][2]int{{3, 100}, {20, 7}}, 8},
	{"8-bit start", wideCfg, [][2]int{{5, 30}, {100, 4}}, 8},
	{"16-bit", nibbleCfg, [][2]int{{10, 300}, {33, 2}}, 16},
	{"32-bit", nibbleCfg, [][2]int{{20, 70000}, {1, 1}}, 32},
	{"clamped past the horizon", nibbleCfg, [][2]int{{60, 4}, {64, 9}, {500, 200}}, 8},
}

func (c snapshotCase) store(t testing.TB) *LiveStore {
	t.Helper()
	ls, err := NewLiveStore([]float64{-1, -1}, []float64{1, 1}, c.cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range c.bursts {
		burst(t, ls, b[0], b[1])
	}
	return ls
}

// TestSnapshotRoundTripAtEveryWidth: a store decoded from its snapshot
// is the store encoded — the same cube at the same width, bit-identical
// exact answers, the same bytes when encoded again — holds no engine and
// no delta log, and answers approximately within the bound.
func TestSnapshotRoundTripAtEveryWidth(t *testing.T) {
	for _, c := range snapshotCases {
		t.Run(c.name, func(t *testing.T) {
			ls := c.store(t)
			if w := ls.width(); w != c.width {
				t.Fatalf("the store is at %d bits, want %d", w, c.width)
			}
			snap := ls.AppendSnapshot(nil)
			back, err := ReadSnapshot(snap, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if back.width() != c.width || !slices.Equal(back.counts(), ls.counts()) || !slices.Equal(back.fill, ls.fill) {
				t.Fatalf("decoded a %d-bit cube, not the %d-bit one encoded", back.width(), c.width)
			}
			if back.Frames() != ls.Frames() {
				t.Fatalf("decoded %d frames, want %d", back.Frames(), ls.Frames())
			}
			if again := back.AppendSnapshot(nil); !bytes.Equal(again, snap) {
				t.Fatal("the decoded store encodes to other bytes")
			}
			if f := back.Footprint(); f.Engine != 0 || f.Delta != 0 || f.Cube != ls.Footprint().Cube {
				t.Fatalf("decoded store holds %+v, want the cube alone", f)
			}
			for ch := 0; ch < 2; ch++ {
				for _, w := range [][2]float64{{0, 1e9}, {0, 0.05}, {0.1, 0.3}, {0.55, 0.7}} {
					// Both fold the same cube (checked above), so the two
					// stores' exact answers are bit-identical.
					checkExact(t, 0, ls, ch, w[0], w[1])
					checkExact(t, 0, back, ch, w[0], w[1])
					est, bound, err := back.ApproximateCount(ch, w[0], w[1], 1<<20)
					if err != nil {
						t.Fatal(err)
					}
					exact, _ := back.CountSamples(ch, w[0], w[1])
					if math.Abs(est-exact) > bound+1e-6 {
						t.Fatalf("ch %d %v: approximate %v±%v, exact %v", ch, w, est, bound, exact)
					}
				}
			}
		})
	}
}

// TestReadSnapshotRefusesDamage: a snapshot that lost or gained a byte,
// holds a row that does not sum to its bucket's fill, claims a width its
// fills do not call for, or a header count no input backs, is refused.
func TestReadSnapshotRefusesDamage(t *testing.T) {
	ls := snapshotCases[2].store(t) // 8-bit
	snap := ls.AppendSnapshot(nil)
	fillAt := snapshotHeaderBytes + snapshotQuantBytes*2 + 4
	rowsAt := fillAt + 8*nibbleCfg.TimeBuckets
	damage := map[string]func(b []byte) []byte{
		"short":     func(b []byte) []byte { return b[:len(b)-1] },
		"long":      func(b []byte) []byte { return append(b, 0) },
		"row total": func(b []byte) []byte { b[rowsAt]++; return b },
		"width":     func(b []byte) []byte { binary.LittleEndian.PutUint32(b[fillAt-4:], 16); return b },
		"fill":      func(b []byte) []byte { binary.LittleEndian.PutUint64(b[fillAt:], 1); return b },
		"buckets":   func(b []byte) []byte { binary.LittleEndian.PutUint32(b[12:], 1<<24); return b },
		"channels":  func(b []byte) []byte { binary.LittleEndian.PutUint32(b[8:], 4096); return b },
		"bits":      func(b []byte) []byte { binary.LittleEndian.PutUint32(b[snapshotHeaderBytes+16:], 4); return b },
		"magic":     func(b []byte) []byte { b[0] = 'X'; return b },
	}
	for name, f := range damage {
		if _, err := ReadSnapshot(f(slices.Clone(snap)), nibbleCfg); err == nil {
			t.Errorf("%s: damaged snapshot accepted", name)
		}
	}
}

// FuzzReadSnapshot: whatever the input, ReadSnapshot does not panic; an
// input it refuses has allocated nothing first (every count that sizes an
// allocation is checked against the input before it is trusted); and an
// input it accepts is a store that encodes back to the same bytes and
// counts its frames exactly. The seeds are one snapshot at each width.
func FuzzReadSnapshot(f *testing.F) {
	for _, c := range snapshotCases {
		f.Add(c.store(f).AppendSnapshot(nil))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ls, err := ReadSnapshot(b, LiveStoreConfig{})
		runtime.ReadMemStats(&after)
		if err != nil {
			if n := after.TotalAlloc - before.TotalAlloc; n > 4<<10 {
				t.Fatalf("a refused input allocated %d bytes first: %v", n, err)
			}
			return
		}
		if again := ls.AppendSnapshot(nil); !bytes.Equal(again, b) {
			t.Fatalf("accepted %d bytes that encode back to %d others", len(b), len(again))
		}
		if n, err := ls.CountSamples(0, 0, math.MaxFloat64); err != nil || n != float64(ls.Frames()) {
			t.Fatalf("COUNT over everything %v (%v), want the %d frames", n, err, ls.Frames())
		}
	})
}

func liveFrames(n int, channels int) []stream.Frame {
	frames := make([]stream.Frame, n)
	for i := range frames {
		vals := make([]float64, channels)
		for c := range vals {
			vals[c] = math.Sin(float64(i)/20+float64(c)) * 3
		}
		frames[i] = stream.Frame{T: float64(i) / 100, Values: vals}
	}
	return frames
}

// TestRestoreReplayDedupInvariant models crash recovery where the journal
// tail overlaps the snapshot: a store is snapshotted at frame N, and the
// surviving log's trailing record spans frames already inside the
// snapshot. The recovery discipline — drop everything below the restored
// store's Frames() watermark, trim the straddling record to its fresh
// suffix — must reproduce the uninterrupted store exactly, while naively
// re-applying the duplicate record visibly diverges (which is what makes
// the watermark check load-bearing).
func TestRestoreReplayDedupInvariant(t *testing.T) {
	mins := []float64{-4, -4}
	maxs := []float64{4, 4}
	cfg := LiveStoreConfig{Rate: 100, TimeBuckets: 32, ValueBins: 32, HorizonTicks: 3200}
	all := liveFrames(900, 2)

	// The fault-free reference: every frame applied exactly once.
	ref, err := NewLiveStore(mins, maxs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.AppendFrames(all); err != nil {
		t.Fatal(err)
	}

	// Snapshot at frame 600, encoded and read back like a real recovery.
	snap, err := NewLiveStore(mins, maxs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snap.AppendFrames(all[:600]); err != nil {
		t.Fatal(err)
	}
	back := snap.AppendSnapshot(nil)
	restored, err := ReadSnapshot(back, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Frames() != 600 {
		t.Fatalf("restored watermark = %d, want 600", restored.Frames())
	}

	// The surviving log: [400,700) — trailing record duplicating 200
	// already-applied frames — then [700,900). Apply with the dedup rule.
	for _, rec := range [][2]int{{400, 700}, {700, 900}} {
		start, end := rec[0], rec[1]
		if end <= restored.Frames() {
			continue // wholly below the watermark: already applied
		}
		if below := restored.Frames() - start; below > 0 {
			start += below // trim the covered prefix
		}
		if _, err := restored.AppendFrames(all[start:end]); err != nil {
			t.Fatal(err)
		}
	}

	if restored.Frames() != ref.Frames() {
		t.Fatalf("frames after dedup replay: %d, want %d", restored.Frames(), ref.Frames())
	}
	for ch := 0; ch < 2; ch++ {
		n1, _ := ref.CountSamples(ch, 0, 12)
		n2, _ := restored.CountSamples(ch, 0, 12)
		if n1 != n2 {
			t.Fatalf("ch %d count %v vs %v", ch, n1, n2)
		}
		a1, ok1, _ := ref.AverageValue(ch, 0, 12)
		a2, ok2, _ := restored.AverageValue(ch, 0, 12)
		if ok1 != ok2 || math.Abs(a1-a2) > 1e-9 {
			t.Fatalf("ch %d average %v vs %v", ch, a1, a2)
		}
	}

	// Sanity that the invariant is doing real work: re-applying the
	// duplicate span verbatim inflates the count — exactly the double
	// apply the watermark discipline prevents.
	naive, err := ReadSnapshot(back, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := naive.AppendFrames(all[400:700]); err != nil {
		t.Fatal(err)
	}
	if _, err := naive.AppendFrames(all[700:900]); err != nil {
		t.Fatal(err)
	}
	if naive.Frames() == ref.Frames() {
		t.Fatal("naive double apply went unnoticed; the dedup test is vacuous")
	}
}
