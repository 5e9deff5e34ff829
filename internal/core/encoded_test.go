package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"aims/internal/stream"
	"aims/internal/wire"
)

// hostileFrames draws n frames whose timestamps and values cover what a
// device may send: ticks running on from *tick, plus negative, NaN, ±Inf
// and far-future timestamps, and values outside the registered [-10, 10]
// range, NaN and ±Inf.
func hostileFrames(rng *rand.Rand, n, channels int, tick *int) []stream.Frame {
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	frames := make([]stream.Frame, n)
	for i := range frames {
		switch r := rng.Intn(12); {
		case r == 0:
			frames[i].T = -float64(1+rng.Intn(50)) / 100
		case r == 1:
			frames[i].T = special[rng.Intn(len(special))]
		case r == 2:
			frames[i].T = 1e9
		default:
			frames[i].T = float64(*tick) / 100
			*tick += 1 + rng.Intn(40)
		}
		frames[i].Values = make([]float64, channels)
		for c := range frames[i].Values {
			if rng.Intn(16) == 0 {
				frames[i].Values[c] = special[rng.Intn(len(special))]
			} else {
				frames[i].Values[c] = rng.Float64()*30 - 15
			}
		}
	}
	return frames
}

// sameLiveState fails unless two live stores hold identical cubes,
// counters and delta logs.
func sameLiveState(t *testing.T, what string, a, b *LiveStore) {
	t.Helper()
	if a.Frames() != b.Frames() {
		t.Fatalf("%s: frames %d/%d", what, a.Frames(), b.Frames())
	}
	if !slices.Equal(a.counts(), b.counts()) || a.Footprint().Cube != b.Footprint().Cube {
		t.Fatalf("%s: cubes differ", what)
	}
	if a.track != b.track || a.overflow != b.overflow || !slices.Equal(a.delta, b.delta) {
		t.Fatalf("%s: delta logs differ: track %v/%v overflow %v/%v, %d/%d entries",
			what, a.track, b.track, a.overflow, b.overflow, len(a.delta), len(b.delta))
	}
}

// TestAppendBinsMatchesAppendFrames: binning straight out of the wire
// encoding and storing the record is AppendFrames, bit for bit — the same
// cube cells, frame count, version and delta log, with delta tracking off,
// on and overflowing — over hostile batches at 1 and 28 channels, each
// also appended with its replayed prefix trimmed at every offset.
func TestAppendBinsMatchesAppendFrames(t *testing.T) {
	for _, channels := range []int{1, 28} {
		modes := []struct {
			name      string
			threshold int // log entries: a few batches' worth overflows
			seal      bool
		}{
			{"untracked", 0, false},
			{"tracked", 1 << 20, true},
			{"overflowing", 40 * channels, true},
		}
		for _, mode := range modes {
			rng := rand.New(rand.NewSource(int64(channels)))
			mins, maxs := make([]float64, channels), make([]float64, channels)
			for c := range mins {
				mins[c], maxs[c] = -10, 10
			}
			cfg := liveCfg()
			cfg.SealDeltaThreshold = mode.threshold
			a, err := NewLiveStore(mins, maxs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, _ := NewLiveStore(mins, maxs, cfg)
			seal := func() {
				if _, err := a.Seal(); err != nil {
					t.Fatal(err)
				}
				if _, err := b.Seal(); err != nil {
					t.Fatal(err)
				}
			}
			if mode.seal {
				seal() // delta tracking starts at the first seal
			}
			size := (channels + 1) * 8
			var rec []byte
			tick, overflowed, logged := 0, false, 0
			for batch := 0; batch < 8; batch++ {
				frames := hostileFrames(rng, 1+rng.Intn(16), channels, &tick)
				body, err := wire.AppendFrames(nil, frames, channels)
				if err != nil {
					t.Fatal(err)
				}
				for k := 0; k <= len(frames); k++ {
					what := fmt.Sprintf("%s, %d channels, batch %d trimmed by %d", mode.name, channels, batch, k)
					na, _ := a.AppendFrames(frames[k:])
					var kept int
					rec, kept = b.Bin(body[k*size:], rec[:0])
					nb, err := b.AppendBins(rec)
					if err != nil || na != nb || nb != kept {
						t.Fatalf("%s: AppendFrames stored %d, AppendBins %d of the %d Bin kept (%v)", what, na, nb, kept, err)
					}
					sameLiveState(t, what, a, b)
					overflowed = overflowed || a.overflow
					logged = max(logged, len(a.delta))
				}
				if mode.seal && batch%3 == 2 {
					seal()
					sameLiveState(t, mode.name+" after a seal", a, b)
				}
			}
			if mode.seal != (logged > 0) || overflowed != (mode.name == "overflowing") {
				t.Fatalf("%s at %d channels: logged up to %d entries, overflowed=%v: the mode was not exercised", mode.name, channels, logged, overflowed)
			}
			if a.Frames() == 0 {
				t.Fatalf("%s at %d channels: nothing stored", mode.name, channels)
			}
		}
	}
}
