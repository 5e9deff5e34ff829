package propolyne

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"aims/internal/vec"
	"aims/internal/wavelet"
)

// queryVectors computes the per-dimension transformed query vectors: the
// lazy wavelet transform on wavelet dimensions, the literal restricted
// polynomial on standard dimensions.
//
// Query execution compiles plans instead (CompilePlan); this map-based
// form is the independent reference implementation the plan-equivalence
// property tests check against.
func (e *Engine) queryVectors(q Query) ([]wavelet.Sparse, error) {
	if err := e.validate(q); err != nil {
		return nil, err
	}
	out := make([]wavelet.Sparse, len(e.Dims))
	for d := range e.Dims {
		var p vec.Poly
		if d < len(q.Polys) && q.Polys[d] != nil {
			p = q.Polys[d]
		} else {
			p = vec.PolyConst(1)
		}
		if e.Bases[d].Standard {
			s := make(wavelet.Sparse, q.Hi[d]-q.Lo[d]+1)
			for v := q.Lo[d]; v <= q.Hi[d]; v++ {
				s.Add(v, p.Eval(float64(v)))
			}
			out[d] = s
			continue
		}
		s, err := wavelet.LazyQuery(e.Dims[d], q.Lo[d], q.Hi[d], p, e.Bases[d].Filter, e.Levels[d])
		if err != nil {
			return nil, err
		}
		out[d] = s
	}
	return out, nil
}

// legacyExact evaluates q through the map-based reference path
// (queryVectors + tensor-product recursion) — the independent oracle the
// compiled plans are checked against.
func legacyExact(t *testing.T, e *Engine, q Query) float64 {
	t.Helper()
	vecs, err := e.queryVectors(q)
	if err != nil {
		t.Fatal(err)
	}
	strides := e.Dims.Strides()
	var sum float64
	var rec func(d, off int, w float64)
	rec = func(d, off int, w float64) {
		if d == len(vecs) {
			sum += w * e.Coeffs[off]
			return
		}
		for i, v := range vecs[d] {
			rec(d+1, off+i*strides[d], w*v)
		}
	}
	rec(0, 0, 1)
	return sum
}

// randomPoly draws a polynomial of degree ≤ maxDeg (nil ≈ constant 1 with
// some probability, matching how callers pass queries).
func randomPoly(rng *rand.Rand, maxDeg int) vec.Poly {
	if rng.Intn(3) == 0 {
		return nil
	}
	p := make(vec.Poly, rng.Intn(maxDeg+1)+1)
	for i := range p {
		p[i] = math.Round(rng.NormFloat64()*4) / 2 // small half-integer coeffs
	}
	if len(p) == 1 && p[0] == 0 {
		p[0] = 1
	}
	return p
}

// TestPlanDotMatchesLegacy is the plan-vs-legacy equivalence property:
// across random geometries (pure wavelet, hybrid, pure standard), random
// boxes and random polynomial degrees, Plan.Dot must agree with the
// map-based reference evaluation.
func TestPlanDotMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	sizeChoices := []int{4, 8, 16, 32}
	for trial := 0; trial < 60; trial++ {
		nd := 1 + rng.Intn(3)
		sizes := make([]int, nd)
		for d := range sizes {
			sizes[d] = sizeChoices[rng.Intn(len(sizeChoices))]
		}
		rel := randomRelation(rng, sizes, 50+rng.Intn(200))
		maxDeg := rng.Intn(3)
		base, err := New(rel.Cube(), sizes, maxDeg)
		if err != nil {
			t.Fatal(err)
		}
		bases := make([]Basis, nd)
		for d := range bases {
			if rng.Intn(5) < 2 {
				bases[d] = Basis{Standard: true}
			} else {
				bases[d] = Basis{Filter: base.Bases[d].Filter}
			}
		}
		e, err := NewWithBases(rel.Cube(), sizes, bases)
		if err != nil {
			t.Fatal(err)
		}
		for qi := 0; qi < 5; qi++ {
			b := randomBox(rng, sizes)
			polys := make([]vec.Poly, nd)
			for d := range polys {
				polys[d] = randomPoly(rng, maxDeg)
			}
			q := Query{Lo: b.Lo, Hi: b.Hi, Polys: polys}
			want := legacyExact(t, e, q)
			p, err := e.CompilePlan(q)
			if err != nil {
				t.Fatal(err)
			}
			got := p.Dot(e.Coeffs)
			if math.Abs(got-want) > 1e-8*(1+math.Abs(want)) {
				t.Fatalf("trial %d: plan %v vs legacy %v (sizes %v bases %+v q %+v)",
					trial, got, want, sizes, bases, q)
			}
			// The cached surface must agree with the direct compile.
			viaExact, _, err := e.Exact(q)
			if err != nil {
				t.Fatal(err)
			}
			if viaExact != got {
				t.Fatalf("Exact %v != Dot %v", viaExact, got)
			}
		}
	}
}

// TestRepeatEvaluationBitIdentical pins the determinism contract: the same
// query over the same coefficients returns the exact same bits, whether the
// plan is cache-hit or recompiled from scratch — the property the fleet
// bit-identical-merge contract leans on.
func TestRepeatEvaluationBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sizes := []int{32, 16, 8}
	rel := randomRelation(rng, sizes, 600)
	e, err := New(rel.Cube(), sizes, 2)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 10; trial++ {
		b := randomBox(rng, sizes)
		q := Query{Lo: b.Lo, Hi: b.Hi, Polys: []vec.Poly{nil, {0, 1}, {0, 0, 1}}}
		first, _, err := e.Exact(q)
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 5; rep++ {
			if rep == 2 {
				SharedCache.Purge() // force a recompile mid-sequence
			}
			again, _, err := e.Exact(q)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(again) != math.Float64bits(first) {
				t.Fatalf("trial %d rep %d: %x != %x", trial, rep,
					math.Float64bits(again), math.Float64bits(first))
			}
		}
		// Approximate answers are deterministic too: the plan's ordering is
		// a total order, so the budgeted prefix is always the same set.
		est1, bound1, err := e.EstimateWithBudget(q, 37)
		if err != nil {
			t.Fatal(err)
		}
		SharedCache.Purge()
		est2, bound2, err := e.EstimateWithBudget(q, 37)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(est1) != math.Float64bits(est2) ||
			math.Float64bits(bound1) != math.Float64bits(bound2) {
			t.Fatalf("budgeted estimate drifted: %v/%v vs %v/%v", est1, bound1, est2, bound2)
		}
	}
}

// TestQueryCoefficientsAscending: the flattened tensor product comes back
// in strictly ascending flat-offset order (the deterministic total order).
func TestQueryCoefficientsAscending(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	sizes := []int{16, 32}
	rel := randomRelation(rng, sizes, 300)
	e, err := New(rel.Cube(), sizes, 1)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 10; trial++ {
		b := randomBox(rng, sizes)
		entries, st, err := e.QueryCoefficients(Query{Lo: b.Lo, Hi: b.Hi})
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != st.QueryCoeffs {
			t.Fatalf("entry count %d != stats %d", len(entries), st.QueryCoeffs)
		}
		for i := 1; i < len(entries); i++ {
			if entries[i].Index <= entries[i-1].Index {
				t.Fatalf("offsets not strictly ascending at %d: %d then %d",
					i, entries[i-1].Index, entries[i].Index)
			}
		}
	}
}

// TestGroupByExactDeterministic: the grouped answer vector is bit-identical
// across repeats (the old map-ordered accumulation was not).
func TestGroupByExactDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sizes := []int{8, 64}
	rel := randomRelation(rng, sizes, 500)
	e, err := New(rel.Cube(), sizes, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGroupBy(e.FullRange(), []vec.Poly{nil, {0, 1}}, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	first, err := e.GroupByExact(g)
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 5; rep++ {
		if rep == 2 {
			SharedCache.Purge()
		}
		again, err := e.GroupByExact(g)
		if err != nil {
			t.Fatal(err)
		}
		for i := range first.Values {
			if math.Float64bits(first.Values[i]) != math.Float64bits(again.Values[i]) {
				t.Fatalf("rep %d bucket %d: %v != %v", rep, i, again.Values[i], first.Values[i])
			}
		}
		if again.SharedCoeffs != first.SharedCoeffs || again.IndividualCoeffs != first.IndividualCoeffs {
			t.Fatalf("coeff accounting drifted: %+v vs %+v", again, first)
		}
	}
}

// TestStandardDimRunSpan: a standard dimension compiles to an O(1) run
// span, not a materialised per-index vector, and still evaluates right.
func TestStandardDimRunSpan(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	sizes := []int{1024, 8}
	rel := randomRelation(rng, sizes, 400)
	base, _ := New(rel.Cube(), sizes, 1)
	e, err := NewWithBases(rel.Cube(), sizes, []Basis{{Standard: true}, {Filter: base.Bases[1].Filter}})
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Lo: []int{0, 0}, Hi: []int{1023, 7}} // whole standard range
	p, err := e.CompilePlan(q)
	if err != nil {
		t.Fatal(err)
	}
	if !p.terms[0].run || p.terms[0].entries != nil {
		t.Fatalf("standard dim should compile to a run span, got %+v", p.terms[0])
	}
	if got := p.stats.PerDim[0]; got != 1024 {
		t.Fatalf("run width %d != 1024", got)
	}
	want := legacyExact(t, e, q)
	if got := p.Dot(e.Coeffs); math.Abs(got-want) > 1e-8*(1+math.Abs(want)) {
		t.Fatalf("run-span dot %v vs legacy %v", got, want)
	}
	// Non-constant polynomial over the span: evaluated on the fly.
	q2 := Query{Lo: []int{5, 1}, Hi: []int{900, 6}, Polys: []vec.Poly{{0, 1}, nil}}
	p2, err := e.CompilePlan(q2)
	if err != nil {
		t.Fatal(err)
	}
	if !p2.terms[0].run || p2.terms[0].isConst {
		t.Fatalf("degree-1 standard term should be a non-const run, got %+v", p2.terms[0])
	}
	want2 := legacyExact(t, e, q2)
	if got2 := p2.Dot(e.Coeffs); math.Abs(got2-want2) > 1e-8*(1+math.Abs(want2)) {
		t.Fatalf("poly run dot %v vs legacy %v", got2, want2)
	}
}

// TestProgressiveMatchesPlanOrdering: the progressive trajectory still ends
// exact and its bounds stay sound, now that ordering lives in the plan.
func TestProgressivePlanPathStaysSound(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	sizes := []int{64, 32}
	rel := randomRelation(rng, sizes, 700)
	e, err := New(rel.Cube(), sizes, 0)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 8; trial++ {
		b := randomBox(rng, sizes)
		q := Query{Lo: b.Lo, Hi: b.Hi}
		exact, _, err := e.Exact(q)
		if err != nil {
			t.Fatal(err)
		}
		steps, _, err := e.Progressive(q, 20)
		if err != nil {
			t.Fatal(err)
		}
		final := steps[len(steps)-1]
		if math.Abs(final.Estimate-exact) > 1e-8*(1+math.Abs(exact)) {
			t.Fatalf("final progressive %v != exact %v", final.Estimate, exact)
		}
		for _, s := range steps {
			if math.Abs(s.Estimate-exact) > s.ErrorBound+1e-8*(1+math.Abs(exact)) {
				t.Fatalf("bound violated at %d coeffs: |%v-%v| > %v",
					s.Coefficients, s.Estimate, exact, s.ErrorBound)
			}
		}
	}
}

// TestPlanDotConcurrent exercises the pooled scratch path from many
// goroutines at once (run under -race in CI).
func TestPlanDotConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	sizes := []int{64, 64}
	rel := randomRelation(rng, sizes, 800)
	e, err := New(rel.Cube(), sizes, 1)
	if err != nil {
		t.Fatal(err)
	}
	b := randomBox(rng, sizes)
	q := Query{Lo: b.Lo, Hi: b.Hi, Polys: []vec.Poly{nil, {0, 1}}}
	p, err := e.CompilePlan(q)
	if err != nil {
		t.Fatal(err)
	}
	want := p.Dot(e.Coeffs)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if got := e.EvalPlan(p); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("concurrent Dot drifted: %v != %v", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
