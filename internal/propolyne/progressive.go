package propolyne

import (
	"math"
	"time"

	"aims/internal/wavelet"
)

// Step is one state of a progressive evaluation: after using the given
// number of (largest-first) query coefficients, Estimate is the running
// answer and ErrorBound a guaranteed |exact − Estimate| bound from
// Cauchy–Schwarz on the unevaluated query mass.
type Step struct {
	Coefficients int
	Estimate     float64
	ErrorBound   float64
}

// Progressive evaluates a query by retrieving data coefficients in order
// of decreasing query-coefficient magnitude — "using the most important
// query wavelet coefficients first" — and reports the trajectory of the
// running estimate. maxSteps bounds the number of emitted checkpoints
// (≤ 0 means every coefficient); the final step is always exact. A
// non-nil q.Trace records the plan-cache outcome and the evaluation time:
// ordering (a plan miss sorts here), the data energy behind the bounds and
// the coefficient walk.
func (e *Engine) Progressive(q Query, maxSteps int) ([]Step, Stats, error) {
	p, err := e.plan(q)
	if err != nil {
		return nil, Stats{}, err
	}
	var t0 time.Time
	if q.Trace != nil {
		t0 = time.Now()
	}
	// The retrieval order and suffix query energies are part of the
	// compiled plan — ordered once, shared by every progressive run.
	entries, suffix := p.Ordered()
	energy := e.Energy()
	e.mu.RLock()
	steps := Steps(entries, suffix, maxSteps, e.coeff, energy)
	e.mu.RUnlock()
	if q.Trace != nil {
		q.Trace.EvalNS = time.Since(t0).Nanoseconds()
	}
	return steps, p.Stats(), nil
}

// EstimateWithBudget returns the approximate answer after spending at most
// budget query coefficients, plus the exact answer's guaranteed error
// bound at that point. A non-nil q.Trace records the plan-cache outcome,
// and its EvalNS spans ordering, the data energy, the coefficient walk and
// the bound.
func (e *Engine) EstimateWithBudget(q Query, budget int) (estimate, bound float64, err error) {
	p, err := e.plan(q)
	if err != nil {
		return 0, 0, err
	}
	var t0 time.Time
	if q.Trace != nil {
		t0 = time.Now()
	}
	entries, suffix := p.Ordered()
	// The data energy is maintained by the appends, so the budgeted path
	// does no per-call energy pass.
	energy := e.Energy()
	e.mu.RLock()
	estimate, bound = Estimate(entries, suffix, budget, e.coeff, energy)
	e.mu.RUnlock()
	if q.Trace != nil {
		q.Trace.EvalNS = time.Since(t0).Nanoseconds()
	}
	return estimate, bound, nil
}

// coeff returns coefficient i. Callers hold mu for reading.
func (e *Engine) coeff(i int) float64 { return e.Coeffs[i] }

// Estimate is the budget walk over a plan's progressive order (entries and
// suffix, from Plan.Ordered): the sum of the first budget entries, each
// weight times cell(its index), and the Cauchy–Schwarz bound on the rest,
// ‖unevaluated query‖·√energy. cell reads the data at a flat offset of the
// plan's geometry and energy is the data's Σ cell². The engine walks its
// coefficients; a store that keeps a pure-relational geometry's cube
// itself walks the cube, whose flat offsets the plan's indices then are.
// budget clamps to [0, entries].
func Estimate(entries []wavelet.Entry, suffix []float64, budget int, cell func(int) float64, energy float64) (estimate, bound float64) {
	budget = min(max(budget, 0), len(entries))
	for _, en := range entries[:budget] {
		estimate += en.Value * cell(en.Index)
	}
	// suffix[budget] is the unevaluated query mass, precomputed at plan
	// ordering time.
	return estimate, math.Sqrt(suffix[budget]) * math.Sqrt(energy)
}

// Steps is the progressive walk over a plan's progressive order: every
// entry, each weight times cell(its index), with a checkpoint of (estimate,
// bound) every ⌈entries/maxSteps⌉ entries (every entry when maxSteps ≤ 0)
// and at the last, whose estimate is exact. entries, suffix, cell and
// energy are as for Estimate. No entries yield one zero step.
func Steps(entries []wavelet.Entry, suffix []float64, maxSteps int, cell func(int) float64, energy float64) []Step {
	dataNorm := math.Sqrt(energy)
	every := 1
	if maxSteps > 0 && len(entries) > maxSteps {
		every = (len(entries) + maxSteps - 1) / maxSteps
	}
	var est float64
	steps := make([]Step, 0, len(entries)/every+1)
	for i, en := range entries {
		est += en.Value * cell(en.Index)
		if (i+1)%every == 0 || i == len(entries)-1 {
			steps = append(steps, Step{
				Coefficients: i + 1,
				Estimate:     est,
				ErrorBound:   math.Sqrt(suffix[i+1]) * dataNorm,
			})
		}
	}
	if len(entries) == 0 {
		steps = append(steps, Step{})
	}
	return steps
}
