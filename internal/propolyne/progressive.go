package propolyne

import (
	"math"
	"time"
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
	st := p.Stats()
	var t0 time.Time
	if q.Trace != nil {
		t0 = time.Now()
	}
	// The retrieval order and suffix query energies are part of the
	// compiled plan — ordered once, shared by every progressive run.
	entries, suffix := p.Ordered()
	dataNorm := math.Sqrt(e.Energy())

	every := 1
	if maxSteps > 0 && len(entries) > maxSteps {
		every = (len(entries) + maxSteps - 1) / maxSteps
	}
	var est float64
	steps := make([]Step, 0, len(entries)/every+1)
	e.mu.RLock()
	for i, en := range entries {
		est += en.Value * e.Coeffs[en.Index]
		if (i+1)%every == 0 || i == len(entries)-1 {
			steps = append(steps, Step{
				Coefficients: i + 1,
				Estimate:     est,
				ErrorBound:   math.Sqrt(suffix[i+1]) * dataNorm,
			})
		}
	}
	e.mu.RUnlock()
	if q.Trace != nil {
		q.Trace.EvalNS = time.Since(t0).Nanoseconds()
	}
	if len(entries) == 0 {
		steps = append(steps, Step{})
	}
	return steps, st, nil
}

// EstimateWithBudget returns the approximate answer after spending at most
// budget query coefficients, plus the exact answer's guaranteed error
// bound at that point. A non-nil q.Trace records the plan-cache outcome,
// and its EvalNS spans ordering, the coefficient walk and the bound.
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
	if budget > len(entries) {
		budget = len(entries)
	}
	if budget < 0 {
		budget = 0
	}
	var est float64
	e.mu.RLock()
	for i := 0; i < budget; i++ {
		est += entries[i].Value * e.Coeffs[entries[i].Index]
	}
	e.mu.RUnlock()
	// suffix[budget] is the unevaluated query mass — precomputed at plan
	// ordering time — and the data energy is maintained by the appends, so
	// the budgeted path does no per-call energy pass on either side.
	bound = math.Sqrt(suffix[budget]) * math.Sqrt(e.Energy())
	if q.Trace != nil {
		q.Trace.EvalNS = time.Since(t0).Nanoseconds()
	}
	return est, bound, nil
}
