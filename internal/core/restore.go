package core

import (
	"fmt"
	"math"

	"aims/internal/wavelet"
)

// RestoreLiveStore rebuilds an ingest-side LiveStore from a sealed Store —
// the inverse of LiveStore.Seal. A sealed store holds the session's count
// cube wavelet-transformed along the engine's non-standard axes, so the
// restore inverse-transforms the coefficients back into counts. Counts are
// integers by construction; a reconstructed cell that is materially
// non-integral or negative means the serialized coefficients were damaged
// in a way the outer checksums missed, and the restore fails rather than
// resurrect a corrupt session.
//
// cfg supplies the non-shape knobs (seal threshold, observer, max degree);
// the shape — rate, buckets, bins, horizon, per-channel value ranges — is
// taken from the store itself. The restored LiveStore seeds its seal cache
// with st, so the first post-restore Seal is incremental, not a rebuild.
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

	mins := make([]float64, st.Channels)
	maxs := make([]float64, st.Channels)
	for c, q := range st.quant {
		mins[c], maxs[c] = q.Min, q.Max
	}
	cfg.Rate = st.Rate
	cfg.TimeBuckets = st.TimeBuckets
	cfg.ValueBins = st.ValueBins
	cfg.HorizonTicks = st.TicksPerBucket * st.TimeBuckets
	ls, err := NewLiveStore(mins, maxs, cfg)
	if err != nil {
		return nil, err
	}
	// Carry the exact registration-time quantizers over: QuantizerFor-built
	// stores may differ from NewQuantizer's rounding of the same range.
	copy(ls.quant, st.quant)

	// Separable per-axis transforms commute, so inversion order is free.
	data := append([]float64(nil), eng.Coeffs...)
	for axis, b := range eng.Bases {
		if !b.Standard {
			wavelet.InverseAxis(data, eng.Dims, axis, b.Filter, eng.Levels[axis])
		}
	}

	tb, vb := st.TimeBuckets, st.ValueBins
	var total uint64
	for i, v := range data {
		r := math.Round(v)
		if math.Abs(v-r) > 1e-3 || r < 0 || r > math.MaxUint32 {
			return nil, fmt.Errorf("core: restore: cell %d reconstructs to %v, not a count", i, v)
		}
		ch := i / (tb * vb)
		if ch >= st.Channels {
			if r != 0 {
				return nil, fmt.Errorf("core: restore: padding channel %d holds count %v", ch, r)
			}
			continue
		}
		ls.cube[i] = uint32(r)
		total += uint64(r)
	}
	if total%uint64(st.Channels) != 0 {
		return nil, fmt.Errorf("core: restore: %d counts do not divide into %d channels", total, st.Channels)
	}
	ls.frames = int(total / uint64(st.Channels))
	ls.version = uint64(ls.frames)
	// Every row changed under the cache: stamp each bucket with the
	// restored version. Appends stamp version+1 and up, so no later frame
	// can write a stamp a post-restore row was cached at.
	for tb := range ls.stamp {
		ls.stamp[tb] = ls.version
	}

	// Seed the seal cache: st's engine already holds exactly this cube, so
	// post-restore appends can replay incrementally instead of rebuilding.
	ls.sealed = st
	ls.sealedVersion = ls.version
	if ls.deltaLimit > 0 {
		ls.track = true
	}
	return ls, nil
}
