package core

import (
	"fmt"
	"math"
	"slices"

	"aims/internal/wavelet"
)

// RestoreLiveStore rebuilds an ingest-side LiveStore from a sealed Store —
// the inverse of LiveStore.Seal. It is the reader of legacy snapshots,
// the ones written as a sealed, serialised engine before snapshots became
// the count cube itself (ReadSnapshot). A sealed store holds the session's
// count cube wavelet-transformed along the engine's non-standard axes, so
// the restore inverse-transforms the coefficients back into counts. Counts
// are integers by construction; a reconstructed cell that is materially
// non-integral or negative, or a bucket whose channels disagree on how
// many frames it holds, means the serialized coefficients were damaged in
// a way the outer checksums missed, and the restore fails rather than
// resurrect a corrupt session. The restored cube is as narrow as its
// fullest bucket allows.
//
// cfg supplies the non-shape knobs (seal threshold, observer, max degree);
// the shape — rate, buckets, bins, horizon, per-channel value ranges — is
// taken from the store itself. The restored LiveStore seeds no seal cache:
// it holds what a ReadSnapshot store holds, the cube alone, and its first
// approximate query seals it cold.
func RestoreLiveStore(st *Store, cfg LiveStoreConfig) (*LiveStore, error) {
	if st == nil || st.Engine == nil {
		return nil, fmt.Errorf("core: restore of nil store")
	}
	eng := st.Engine
	chDim := nextPow2(st.Channels)
	wantDims := []int{chDim, st.TimeBuckets, st.ValueBins}
	if len(eng.Dims) != len(wantDims) {
		return nil, fmt.Errorf("core: restore: engine has %d dims, want %d", len(eng.Dims), len(wantDims))
	}
	for i, n := range wantDims {
		if eng.Dims[i] != n {
			return nil, fmt.Errorf("core: restore: engine dims %v incompatible with store shape %v", []int(eng.Dims), wantDims)
		}
	}

	cfg.Rate = st.Rate
	cfg.TimeBuckets = st.TimeBuckets
	cfg.ValueBins = st.ValueBins
	cfg.HorizonTicks = st.TicksPerBucket * st.TimeBuckets
	// The store's own quantisers, not ones rebuilt from their ranges, bin
	// every post-restore append, so they land where the store's did.
	ls, err := newLiveStore(slices.Clone(st.quant), cfg, 0)
	if err != nil {
		return nil, err
	}

	// Separable per-axis transforms commute, so inversion order is free.
	data := append([]float64(nil), eng.Coeffs...)
	for axis, b := range eng.Bases {
		if !b.Standard {
			wavelet.InverseAxis(data, eng.Dims, axis, b.Filter, eng.Levels[axis])
		}
	}

	// Every frame adds one count to each channel's row of its bucket, so a
	// bucket's fill is channel 0's row sum there, every channel must agree
	// with it, and the largest fill picks the cube's width.
	tb, vb := st.TimeBuckets, st.ValueBins
	cells := st.Channels * tb * vb
	var sum uint64
	for i, v := range data {
		r := math.Round(v)
		if math.Abs(v-r) > 1e-3 || r < 0 || r > math.MaxUint32 {
			return nil, fmt.Errorf("core: restore: cell %d reconstructs to %v, not a count", i, v)
		}
		if i >= cells {
			if r != 0 {
				return nil, fmt.Errorf("core: restore: padding channel %d holds count %v", i/(tb*vb), r)
			}
			continue
		}
		data[i] = r
		sum += uint64(r)
		if i%vb < vb-1 {
			continue
		}
		row := i / vb
		switch ch, b := row/tb, row%tb; {
		case ch == 0:
			ls.fill[b] = sum
			ls.frames += int(sum)
			for sum > ls.fillMax {
				ls.widen()
			}
		case sum != ls.fill[b]:
			return nil, fmt.Errorf("core: restore: channel %d holds %d frames in bucket %d, channel 0 holds %d", ch, sum, b, ls.fill[b])
		}
		sum = 0
	}
	switch {
	case ls.c4 != nil:
		pack(ls.c4, data[:cells])
	case ls.c8 != nil:
		convert(ls.c8, data[:cells])
	case ls.c16 != nil:
		convert(ls.c16, data[:cells])
	default:
		convert(ls.c32, data[:cells])
	}
	ls.version = uint64(ls.frames)
	return ls, nil
}
