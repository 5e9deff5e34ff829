package core

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"aims/internal/stream"
)

// sameApproxAnswers fails unless the store's approximate COUNT of channel
// ch over [t0, t1] is bit-identical to the sealed engine st's at every
// budget from −1 to one past the box size — estimate and bound — and its
// progressive steps are, at every checkpoint spacing tried.
func sameApproxAnswers(t *testing.T, what string, ls *LiveStore, st *Store, ch int, t0, t1 float64) {
	t.Helper()
	box, err := ls.BoxVolume(ch, t0, t1)
	if err != nil {
		t.Fatal(err)
	}
	for budget := -1; budget <= int(box)+1; budget++ {
		est, bound, err := ls.ApproximateCount(ch, t0, t1, budget)
		if err != nil {
			t.Fatal(err)
		}
		want, wantBound, err := st.ApproximateCount(ch, t0, t1, budget)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(est) != math.Float64bits(want) || math.Float64bits(bound) != math.Float64bits(wantBound) {
			t.Fatalf("%s ch %d [%v, %v] budget %d: cube walk %v±%v, sealed engine %v±%v", what, ch, t0, t1, budget, est, bound, want, wantBound)
		}
	}
	q, err := ls.countQuery(ch, t0, t1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, maxSteps := range []int{0, 1, 3, 16} {
		steps, _, err := ls.ProgressiveCount(ch, t0, t1, maxSteps, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := st.Engine.Progressive(q, maxSteps)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(steps, want) {
			t.Fatalf("%s ch %d [%v, %v] %d steps: cube walk %v, sealed engine %v", what, ch, t0, t1, maxSteps, steps, want)
		}
	}
}

// TestCubeWalkMatchesSealedEngine: where the hybrid chooser keeps the
// standard basis on every axis, approximate and progressive COUNTs walk the
// count cube and never seal — no engine, no delta log — and answer bit for
// bit as the sealed engine of the same cube does. It runs the benchmark's
// seeded glove and tracker recordings at each cube width: 4 bits (4 ticks
// a bucket), 8 (the default horizon), 16 (300 ticks a bucket) and 32 (a
// one-tick-per-bucket horizon whose last bucket takes 65 000 frames). The
// windows hold one to eight buckets, so every budget of their boxes is
// tried, and one lies past the data. Bounds match because both sides'
// data energy is exact while Σc² < 2^53, which each store checks.
func TestCubeWalkMatchesSealedEngine(t *testing.T) {
	for name, frames := range benchInputs() {
		mins, maxs := paddedRanges(frames)
		for _, tc := range []struct {
			width, horizon, cycles int
		}{
			{4, 256 * 4, 1},
			{8, 0, 1},
			{16, 256 * 300, 1},
			{32, 256, 65},
		} {
			seals := 0
			ls, err := NewLiveStore(mins, maxs, LiveStoreConfig{
				HorizonTicks: tc.horizon,
				SealObserver: func(time.Duration, bool, int) { seals++ },
			})
			if err != nil {
				t.Fatal(err)
			}
			batch := make([]stream.Frame, 0, len(frames)*tc.cycles)
			for i := 0; i < cap(batch); i++ {
				batch = append(batch, stream.Frame{T: float64(i) / ls.cfg.Rate, Values: frames[i%len(frames)]})
			}
			if n, err := ls.AppendFrames(batch); err != nil || n != len(batch) {
				t.Fatalf("%s: stored %d of %d frames: %v", name, n, len(batch), err)
			}
			what := fmt.Sprintf("%s at %d bits", name, tc.width)
			if ls.rel == nil || ls.width() != tc.width {
				t.Fatalf("%s: relational %v, width %d", what, ls.rel != nil, ls.width())
			}
			ls.mu.RLock()
			energy := ls.dataEnergy()
			ls.mu.RUnlock()
			if energy >= 1<<53 {
				t.Fatalf("%s: Σc² = %d, not below 2^53", what, energy)
			}
			tpb, last := float64(ls.TicksPerBucket()), min(255, (len(batch)-1)/ls.TicksPerBucket())
			at := func(bucket int) float64 { return (float64(bucket) + 0.5) * tpb / ls.cfg.Rate }
			windows := [][2]int{{0, 0}, {1, 4}, {max(0, last-2), min(255, last+5)}, {248, 255}}
			chans := []int{0, ls.Channels() / 2, ls.Channels() - 1}
			// The cube walk's answers come first: no query may seal.
			type answer struct{ est, bound float64 }
			var before []answer
			for _, ch := range chans {
				for _, w := range windows {
					est, bound, err := ls.ApproximateCount(ch, at(w[0]), at(w[1]), 64)
					if err != nil {
						t.Fatal(err)
					}
					if _, _, err := ls.ProgressiveCount(ch, at(w[0]), at(w[1]), 16, nil); err != nil {
						t.Fatal(err)
					}
					before = append(before, answer{est, bound})
				}
			}
			if f := ls.Footprint(); seals != 0 || f.Engine != 0 || f.Delta != 0 {
				t.Fatalf("%s: %d seals, footprint %+v after cube walks; want no seal, engine or delta log", what, seals, f)
			}
			st, err := ls.Seal()
			if err != nil {
				t.Fatal(err)
			}
			if st.Engine.HasWaveletDims() {
				t.Fatalf("%s: sealed to bases %+v, want pure-relational", what, st.Engine.Bases)
			}
			i := 0
			for _, ch := range chans {
				for _, w := range windows {
					sameApproxAnswers(t, what, ls, st, ch, at(w[0]), at(w[1]))
					if est, bound, _ := ls.ApproximateCount(ch, at(w[0]), at(w[1]), 64); (answer{est, bound}) != before[i] {
						t.Fatalf("%s ch %d: %v±%v after the seal, %+v before", what, ch, est, bound, before[i])
					}
					i++
				}
			}
		}
	}
}

// TestCubeWalkEnergyPast2to53 pins the bound's rule once the data energy
// Σc² reaches 2^53: the cube walk's bound is √(unevaluated query mass) ·
// √float64(Σc²), the exact integer energy rounded once to the nearest
// float64, while a sealed engine's float energy rounds at every add and
// may differ from it in the last bits. The estimate, a sum of counts each
// below 2^53, stays bit-identical to the sealed engine's.
func TestCubeWalkEnergyPast2to53(t *testing.T) {
	ls, err := NewLiveStore([]float64{-1, -1}, []float64{1, 1}, exactOpsCfg)
	if err != nil {
		t.Fatal(err)
	}
	// Fill the 32-bit cube directly with counts near 2^26: 128 cells of
	// about 2^52 each put Σc² near 2^59, far past 2^53 and short of 2^64.
	ls.mu.Lock()
	ls.c4, ls.c32, ls.fillMax = nil, make([]uint32, ls.cells()), math.MaxUint64
	var energy uint64
	for i := range ls.c32 {
		ls.c32[i] = 1<<26 + uint32(i*7919)
		energy += uint64(ls.c32[i]) * uint64(ls.c32[i])
	}
	vb := ls.cfg.ValueBins
	for tb := range ls.fill {
		for bin := 0; bin < vb; bin++ {
			ls.fill[tb] += uint64(ls.c32[tb*vb+bin])
		}
		ls.frames += int(ls.fill[tb])
	}
	ls.mu.Unlock()
	if energy < 1<<53 {
		t.Fatalf("Σc² = %d, want past 2^53", energy)
	}
	st, err := ls.Seal()
	if err != nil {
		t.Fatal(err)
	}
	for ch := 0; ch < 2; ch++ {
		for _, w := range [][2]float64{{0, 1e9}, {0.1, 0.3}} {
			box, _ := ls.BoxVolume(ch, w[0], w[1])
			for budget := 0; budget <= int(box); budget++ {
				est, bound, err := ls.ApproximateCount(ch, w[0], w[1], budget)
				if err != nil {
					t.Fatal(err)
				}
				if want := math.Sqrt(float64(int(box)-budget)) * math.Sqrt(float64(energy)); bound != want {
					t.Fatalf("ch %d %v budget %d: bound %v, want √%d·√float64(%d) = %v", ch, w, budget, bound, int(box)-budget, energy, want)
				}
				sealed, sealedBound, err := st.ApproximateCount(ch, w[0], w[1], budget)
				if err != nil {
					t.Fatal(err)
				}
				if est != sealed {
					t.Fatalf("ch %d %v budget %d: estimate %v, sealed engine %v", ch, w, budget, est, sealed)
				}
				if math.Abs(bound-sealedBound) > 1e-12*bound {
					t.Fatalf("ch %d %v budget %d: bound %v, sealed engine %v", ch, w, budget, bound, sealedBound)
				}
			}
		}
	}
}

// TestWaveletGeometryStillSeals: where the chooser picks a wavelet axis —
// 512 time buckets put the time axis in one, 128 value bins the value axis
// — approximate and progressive COUNTs still seal, hold the sealed engine,
// and answer as it does, within their bounds of the exact count.
func TestWaveletGeometryStillSeals(t *testing.T) {
	frames := benchInputs()["tracker"]
	mins, maxs := paddedRanges(frames)
	for _, cfg := range []LiveStoreConfig{{TimeBuckets: 512}, {ValueBins: 128}} {
		seals := 0
		cfg.SealObserver = func(time.Duration, bool, int) { seals++ }
		ls, err := NewLiveStore(mins, maxs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if ls.rel != nil {
			t.Fatalf("%+v: the store walks its cube, want it to seal", cfg)
		}
		for i, fr := range frames {
			if err := appendAt(ls, i, fr); err != nil {
				t.Fatal(err)
			}
		}
		est, bound, mark, err := ls.ApproximateCountTraced(3, 1, 7, 64, nil)
		if err != nil {
			t.Fatal(err)
		}
		if seals != 1 || ls.Footprint().Engine == 0 || mark != uint64(ls.Frames()) {
			t.Fatalf("%+v: %d seals, footprint %+v, watermark %d; want one seal and its engine", cfg, seals, ls.Footprint(), mark)
		}
		exact, _ := ls.CountSamples(3, 1, 7)
		if math.Abs(est-exact) > bound+1e-6 {
			t.Fatalf("%+v: %v±%v misses the exact %v", cfg, est, bound, exact)
		}
		st, err := ls.Seal()
		if err != nil {
			t.Fatal(err)
		}
		if !st.Engine.HasWaveletDims() {
			t.Fatalf("%+v: sealed to bases %+v, want a wavelet axis", cfg, st.Engine.Bases)
		}
		if want, wantBound, _ := st.ApproximateCount(3, 1, 7, 64); est != want || bound != wantBound {
			t.Fatalf("%+v: %v±%v, the sealed engine answers %v±%v", cfg, est, bound, want, wantBound)
		}
		q, _ := ls.countQuery(3, 1, 7, nil)
		want, _, _ := st.Engine.Progressive(q, 8)
		if steps, _, _ := ls.ProgressiveCount(3, 1, 7, 8, nil); !slices.Equal(steps, want) {
			t.Fatalf("%+v: progressive %v, the sealed engine's %v", cfg, steps, want)
		}
	}
}
