package propolyne

import (
	"math"
	"math/bits"
	"sort"
)

// Refined error estimation (§3.3.1, second extension): "some limited
// amount of information about the energy distribution of the data can be
// used to improve the performance of [the] query approximation version of
// ProPolyne … accurate error estimates and confidence intervals without
// introducing significant computational overhead."
//
// The global progressive bound is ‖q_rem‖·‖data‖ — one Cauchy–Schwarz over
// the whole cube. The refinement keeps one scalar per *subband cell* (the
// Cartesian product of per-dimension wavelet bands): applying
// Cauchy–Schwarz per cell and summing,
//
//	|Σ_c ⟨q_c, d_c⟩| ≤ Σ_c ‖q_c‖·‖d_c‖,
//
// which is never looser than the global bound on the same remainder and is
// dramatically tighter whenever the query's remaining energy sits in bands
// where the data is quiet.

// bandOf returns the subband index of position p in a length-n, levels-deep
// standard layout: 0 is the approximation band, j ∈ [1, levels] the detail
// band produced at analysis level levels-j+1 (coarse bands get small
// indices). Standard (untransformed) dimensions use a single band 0.
func bandOf(p, n, levels int) int {
	if levels == 0 || p < n>>uint(levels) {
		return 0
	}
	// p ∈ [n>>j, n>>(j-1)) for the level-j detail band.
	j := bits.Len(uint(n)) - 1 - (bits.Len(uint(p)) - 1)
	return levels - j + 1
}

// bandCells returns the per-dimension band counts.
func (e *Engine) bandCells() []int {
	counts := make([]int, len(e.Dims))
	for d := range e.Dims {
		if e.Bases[d].Standard {
			counts[d] = 1
		} else {
			counts[d] = e.Levels[d] + 1
		}
	}
	return counts
}

// cellOf maps a flat coefficient index to its subband-cell id.
func (e *Engine) cellOf(flat int, cells []int) int {
	strides := e.Dims.Strides()
	id := 0
	for d := range e.Dims {
		coord := flat / strides[d] % e.Dims[d]
		b := 0
		if !e.Bases[d].Standard {
			b = bandOf(coord, e.Dims[d], e.Levels[d])
		}
		id = id*cells[d] + b
	}
	return id
}

// bandEnergies lazily computes Σ coeff² per subband cell; safe for
// concurrent use (cacheMu before mu, matching the appends that invalidate it).
func (e *Engine) bandEnergies() map[int]float64 {
	e.cacheMu.Lock()
	defer e.cacheMu.Unlock()
	if e.bandEnergy != nil {
		return e.bandEnergy
	}
	cells := e.bandCells()
	out := map[int]float64{}
	e.mu.RLock()
	for p, v := range e.Coeffs {
		if v == 0 {
			continue
		}
		out[e.cellOf(p, cells)] += v * v
	}
	e.mu.RUnlock()
	e.bandEnergy = out
	return out
}

// EstimateWithBudgetRefined is EstimateWithBudget with the per-subband
// bound: the estimate is identical, the guarantee is (weakly) tighter.
func (e *Engine) EstimateWithBudgetRefined(q Query, budget int) (estimate, bound float64, err error) {
	entries, _, err := e.QueryCoefficients(q)
	if err != nil {
		return 0, 0, err
	}
	sort.Slice(entries, func(i, j int) bool {
		ai, aj := math.Abs(entries[i].Value), math.Abs(entries[j].Value)
		if ai != aj {
			return ai > aj
		}
		return entries[i].Index < entries[j].Index
	})
	if budget > len(entries) {
		budget = len(entries)
	}
	cells := e.bandCells()
	bandData := e.bandEnergies()

	var est float64
	remPerCell := map[int]float64{}
	e.mu.RLock()
	for i, en := range entries {
		if i < budget {
			est += en.Value * e.Coeffs[en.Index]
			continue
		}
		remPerCell[e.cellOf(en.Index, cells)] += en.Value * en.Value
	}
	e.mu.RUnlock()
	for cell, qe := range remPerCell {
		bound += math.Sqrt(qe) * math.Sqrt(bandData[cell])
	}
	return est, bound, nil
}
