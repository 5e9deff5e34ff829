package core

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

type sealRecord struct {
	incremental bool
	delta       int
}

// TestSealFallbackAfterReplayError forces the incremental seal's delta
// replay to fail (a poisoned log entry pointing outside the cube) and
// requires the next seal to recover by rebuilding from scratch — reported
// to the SealObserver as a non-incremental seal — with query answers
// identical to a store that never took the broken path.
func TestSealFallbackAfterReplayError(t *testing.T) {
	var seals []sealRecord
	cfg := LiveStoreConfig{
		Rate: 100, TimeBuckets: 32, ValueBins: 32, HorizonTicks: 3200,
		SealObserver: func(d time.Duration, incremental bool, deltaEntries int) {
			seals = append(seals, sealRecord{incremental, deltaEntries})
		},
	}
	mins := []float64{-10, -10}
	maxs := []float64{10, 10}
	ls, err := NewLiveStore(mins, maxs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	frame := func(i int) []float64 {
		return []float64{8 * math.Sin(float64(i)*0.11), 8 * math.Cos(float64(i)*0.07)}
	}
	for i := 0; i < 400; i++ {
		if err := appendAt(ls, i, frame(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ls.Seal(); err != nil {
		t.Fatal(err)
	}
	if len(seals) != 1 || seals[0].incremental {
		t.Fatalf("first seal = %+v, want one full rebuild", seals)
	}

	// More appends populate the delta log; poison it with a flat index
	// outside the cube so the engine's batched sparse append must reject
	// the replay.
	for i := 400; i < 500; i++ {
		if err := appendAt(ls, i, frame(i)); err != nil {
			t.Fatal(err)
		}
	}
	ls.mu.Lock()
	if !ls.track || len(ls.delta) == 0 {
		ls.mu.Unlock()
		t.Fatal("delta log not tracking after first seal")
	}
	ls.delta = append(ls.delta, uint32(len(ls.counts()))+12345)
	ls.mu.Unlock()
	if _, err := ls.Seal(); err == nil {
		t.Fatal("seal with a poisoned delta log succeeded")
	}
	if len(seals) != 1 {
		t.Fatalf("failed seal reported to observer: %+v", seals)
	}

	// The failed replay left the cached engine in an unknown state; the
	// next seal must not trust it.
	st, err := ls.Seal()
	if err != nil {
		t.Fatalf("seal after replay failure: %v", err)
	}
	if len(seals) != 2 || seals[1].incremental {
		t.Fatalf("recovery seal = %+v, want a full rebuild", seals)
	}

	// Answers must match a store that never saw the poisoned path (built
	// without the observer so it doesn't pollute the seal record).
	cleanCfg := cfg
	cleanCfg.SealObserver = nil
	clean, err := NewLiveStore(mins, maxs, cleanCfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := appendAt(clean, i, frame(i)); err != nil {
			t.Fatal(err)
		}
	}
	cleanSt, err := clean.Seal()
	if err != nil {
		t.Fatal(err)
	}
	for ch := 0; ch < 2; ch++ {
		got, gotBound, err := st.ApproximateCount(ch, 0, 5, 16)
		if err != nil {
			t.Fatal(err)
		}
		want, wantBound, err := cleanSt.ApproximateCount(ch, 0, 5, 16)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-9 || math.Abs(gotBound-wantBound) > 1e-9 {
			t.Fatalf("ch %d: rebuilt store answers %v±%v, clean %v±%v", ch, got, gotBound, want, wantBound)
		}
	}

	// And the incremental path works again after the rebuild.
	for i := 500; i < 520; i++ {
		if err := appendAt(ls, i, frame(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ls.Seal(); err != nil {
		t.Fatal(err)
	}
	if len(seals) != 3 || !seals[2].incremental {
		t.Fatalf("post-recovery seal = %+v, want incremental", seals)
	}
}

// gloveRange is the ±10 value range of every channel in these tests.
func gloveRange(channels int) (mins, maxs []float64) {
	mins = make([]float64, channels)
	maxs = make([]float64, channels)
	for c := range mins {
		mins[c], maxs[c] = -10, 10
	}
	return mins, maxs
}

// TestSealOffsetReplayPaddedChannels pins the premise of the offset
// replay: the delta log holds offsets into the channels×buckets×bins count
// cube, the engine pads channels to a power of two (28 → 32), and because
// channel is the leading dimension the two offset spaces coincide. An
// incrementally sealed store must therefore equal a from-scratch rebuild
// of the same frames cell for cell, padding channels included — on a
// pure-relational engine (the raw log streamed) and on a hybrid one (the
// log deduplicated, each cell a tensor-product scatter).
func TestSealOffsetReplayPaddedChannels(t *testing.T) {
	const channels = 28
	mins, maxs := gloveRange(channels)
	hybrid := liveCfg()
	hybrid.MaxDegree, hybrid.ValueBins = 1, 64 // value bins go wavelet under D4
	for _, tc := range []struct {
		name    string
		cfg     LiveStoreConfig
		wavelet bool
	}{
		{"pure-relational", liveCfg(), false},
		{"hybrid", hybrid, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(28))
			inc, err := NewLiveStore(mins, maxs, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			tc.cfg.SealDeltaThreshold = -1 // reference: every seal rebuilds
			ref, err := NewLiveStore(mins, maxs, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			fr := make([]float64, channels)
			tick := 0
			for round := 0; round < 6; round++ {
				for k := 0; k < 40; k++ {
					for c := range fr {
						fr[c] = rng.Float64()*20 - 10
					}
					if err := appendAt(inc, tick, fr); err != nil {
						t.Fatal(err)
					}
					if err := appendAt(ref, tick, fr); err != nil {
						t.Fatal(err)
					}
					tick++
				}
				stInc, err := inc.Seal() // round 0 builds; every later one replays offsets
				if err != nil {
					t.Fatal(err)
				}
				stRef, err := ref.Seal()
				if err != nil {
					t.Fatal(err)
				}
				if got := stInc.Engine.HasWaveletDims(); got != tc.wavelet {
					t.Fatalf("sealed to bases %+v, want wavelet dims = %v", stInc.Engine.Bases, tc.wavelet)
				}
				a, b := stInc.Engine.Coeffs, stRef.Engine.Coeffs
				if len(a) != 32*tc.cfg.TimeBuckets*tc.cfg.ValueBins || len(a) != len(b) {
					t.Fatalf("engine sizes %d / %d, want the 32-channel padded cube", len(a), len(b))
				}
				for i := range a {
					if math.Abs(a[i]-b[i]) > 1e-9 {
						t.Fatalf("round %d: cell %d replayed to %v, rebuilt to %v", round, i, a[i], b[i])
					}
				}
			}
		})
	}
}

// TestLiveApproxAfterAppendEnergyCurrent runs the live-query cycle —
// append, then an approximate COUNT — 1000 times on a 28-channel store at
// the default live geometry, where the query walks the count cube and
// keeps its data energy per bucket, sealing the store beside it each cycle
// so the engine's energy is maintained through delta replays. Every answer
// must sit within its own bound, and at the end the engine's maintained
// energy must equal a fresh Σ coeff² and the cube walk's integer Σc², bit
// for bit: that geometry seals to a pure-relational engine (all three
// bases standard), where every update is integer arithmetic.
func TestLiveApproxAfterAppendEnergyCurrent(t *testing.T) {
	const channels = 28
	mins, maxs := gloveRange(channels)
	ls, err := NewLiveStore(mins, maxs, LiveStoreConfig{Rate: 100, HorizonTicks: 4000})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1000))
	fr := make([]float64, channels)
	tick := 0
	var st *Store
	for cycle := 0; cycle < 1000; cycle++ {
		for k := 0; k < 4; k++ {
			for c := range fr {
				fr[c] = rng.Float64()*20 - 10
			}
			if err := appendAt(ls, tick, fr); err != nil {
				t.Fatal(err)
			}
			tick++
		}
		ch := rng.Intn(channels)
		est, bound, err := ls.ApproximateCount(ch, 0, 40, 64)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := ls.CountSamples(ch, 0, 40)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(exact-est) > bound+1e-6 {
			t.Fatalf("cycle %d: |%v − %v| exceeds bound %v", cycle, exact, est, bound)
		}
		if st, err = ls.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	if st.Engine.HasWaveletDims() {
		t.Fatalf("default live geometry sealed to bases %+v, want pure-relational", st.Engine.Bases)
	}
	var fresh float64
	for _, v := range st.Engine.Coeffs {
		fresh += v * v
	}
	if got := st.Engine.Energy(); got != fresh {
		t.Fatalf("maintained energy %v != fresh sum %v after 1000 append→query cycles", got, fresh)
	}
	ls.mu.RLock()
	cube := ls.dataEnergy()
	ls.mu.RUnlock()
	if float64(cube) != fresh {
		t.Fatalf("the cube walk's energy %d != the engine's %v", cube, fresh)
	}
}

// TestSealAllocatesOneCube pins a cold seal at one float cube: the engine
// takes the snapshot Seal fills and transforms it in place. A seal that
// hands the engine a snapshot to copy allocates twice the coefficients.
func TestSealAllocatesOneCube(t *testing.T) {
	const channels = 8 // a tracker: its padded cube is exactly 8 channels deep
	mins, maxs := gloveRange(channels)
	ls, err := NewLiveStore(mins, maxs, LiveStoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	frame := make([]float64, channels)
	for i := 0; i < 2048; i++ {
		for c := range frame {
			frame[c] = rng.Float64()*20 - 10
		}
		if err := appendAt(ls, i, frame); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st, err := ls.Seal()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	coeffBytes := uint64(len(st.Engine.Coeffs)) * 8
	if got := after.TotalAlloc - before.TotalAlloc; got > coeffBytes*5/4 {
		t.Fatalf("a cold seal allocated %d B for %d B of coefficients, want at most 1.25×", got, coeffBytes)
	}
}
