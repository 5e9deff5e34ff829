package core

import (
	"bytes"
	"math"
	"testing"

	"aims/internal/stream"
)

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

// TestRestoreLiveStoreRoundTrip seals a live store, serialises it, reads
// it back, inverse-transforms it into a new live store, and checks the
// restored session answers exact queries identically — then keeps
// ingesting and sealing.
func TestRestoreLiveStoreRoundTrip(t *testing.T) {
	mins := []float64{-4, -4, -4}
	maxs := []float64{4, 4, 4}
	cfg := LiveStoreConfig{Rate: 100, TimeBuckets: 32, ValueBins: 32, HorizonTicks: 3200}
	ls, err := NewLiveStore(mins, maxs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ls.AppendFrames(liveFrames(1200, 3)); err != nil {
		t.Fatal(err)
	}
	st, err := ls.Seal()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := st.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadStore(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreLiveStore(back, cfg)
	if err != nil {
		t.Fatal(err)
	}

	if restored.Frames() != ls.Frames() {
		t.Fatalf("frames: restored %d, want %d", restored.Frames(), ls.Frames())
	}
	for ch := 0; ch < 3; ch++ {
		n1, err1 := ls.CountSamples(ch, 0, 12)
		n2, err2 := restored.CountSamples(ch, 0, 12)
		if err1 != nil || err2 != nil || n1 != n2 {
			t.Fatalf("ch %d count: %v/%v (%v %v)", ch, n1, n2, err1, err2)
		}
		a1, ok1, _ := ls.AverageValue(ch, 0, 12)
		a2, ok2, _ := restored.AverageValue(ch, 0, 12)
		if ok1 != ok2 || math.Abs(a1-a2) > 1e-9 {
			t.Fatalf("ch %d average: %v/%v", ch, a1, a2)
		}
	}

	// Continued ingest then seals cold, and the sealed engine agrees with
	// the exact cube.
	if _, err := restored.AppendFrames(liveFrames(100, 3)); err != nil {
		t.Fatal(err)
	}
	est, bound, err := restored.ApproximateCount(1, 0, 13, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	exact, _ := restored.CountSamples(1, 0, 13)
	if math.Abs(est-exact) > bound+1e-6 {
		t.Fatalf("sealed estimate %v±%v vs exact %v", est, bound, exact)
	}
}

// TestRestoreLiveStoreRejectsDamage corrupts a sealed store's coefficients
// in ways the header checks cannot see; the integrality check must refuse
// to resurrect the session.
func TestRestoreLiveStoreRejectsDamage(t *testing.T) {
	cfg := LiveStoreConfig{Rate: 100, TimeBuckets: 16, ValueBins: 16, HorizonTicks: 1600}
	ls, err := NewLiveStore([]float64{-4}, []float64{4}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ls.AppendFrames(liveFrames(500, 1)); err != nil {
		t.Fatal(err)
	}
	st, err := ls.Seal()
	if err != nil {
		t.Fatal(err)
	}
	st.Engine.Coeffs[7] += 0.37
	if _, err := RestoreLiveStore(st, cfg); err == nil {
		t.Fatal("non-integral cube accepted")
	}
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

	// Snapshot at frame 600, serialised and read back like a real recovery.
	snap, err := NewLiveStore(mins, maxs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snap.AppendFrames(all[:600]); err != nil {
		t.Fatal(err)
	}
	st, err := snap.Seal()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := st.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadStore(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreLiveStore(back, cfg)
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
	naive, err := RestoreLiveStore(back, cfg)
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
