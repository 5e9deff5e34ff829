package propolyne

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"aims/internal/datacube"
	"aims/internal/synth"
	"aims/internal/vec"
	"aims/internal/wavelet"
)

// randomRelation builds a small relation plus its cube for ground truth.
func randomRelation(rng *rand.Rand, sizes []int, n int) *datacube.Relation {
	names := make([]string, len(sizes))
	for i := range names {
		names[i] = string(rune('a' + i))
	}
	r := datacube.NewRelation(datacube.Schema{Names: names, Sizes: sizes})
	for i := 0; i < n; i++ {
		t := make([]int, len(sizes))
		for d, s := range sizes {
			t[d] = rng.Intn(s)
		}
		r.MustAppend(t)
	}
	return r
}

func randomBox(rng *rand.Rand, sizes []int) Box {
	lo := make([]int, len(sizes))
	hi := make([]int, len(sizes))
	for d, s := range sizes {
		lo[d] = rng.Intn(s)
		hi[d] = lo[d] + rng.Intn(s-lo[d])
	}
	return Box{Lo: lo, Hi: hi}
}

func TestNewRejectsBadInput(t *testing.T) {
	if _, err := New(make([]float64, 10), []int{10}, 0); err == nil {
		t.Fatal("non-power-of-two accepted")
	}
	if _, err := New(make([]float64, 8), []int{16}, 0); err == nil {
		t.Fatal("size mismatch accepted")
	}
	if _, err := New(make([]float64, 16), []int{16}, 9); err == nil {
		t.Fatal("impossible degree accepted")
	}
	if _, err := NewWithBases(make([]float64, 16), []int{16}, nil); err == nil {
		t.Fatal("bases arity mismatch accepted")
	}
}

func TestExactCountMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sizes := []int{32, 16}
	rel := randomRelation(rng, sizes, 500)
	e, err := New(rel.Cube(), sizes, 0)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		b := randomBox(rng, sizes)
		want := rel.RangeSum(b.Lo, b.Hi, nil)
		got, err := e.Count(b)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-6*(1+want) {
			t.Fatalf("COUNT %v, want %v (box %v)", got, want, b)
		}
	}
}

func TestExactPolynomialAggregatesMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	sizes := []int{32, 16, 8}
	rel := randomRelation(rng, sizes, 800)
	e, err := New(rel.Cube(), sizes, 2) // degree 2 ⇒ db3
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 10; trial++ {
		b := randomBox(rng, sizes)
		// SUM over dim 1.
		want := rel.RangeSum(b.Lo, b.Hi, []vec.Poly{nil, {0, 1}, nil})
		got, err := e.Sum(b, 1)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-5*(1+math.Abs(want)) {
			t.Fatalf("SUM %v, want %v", got, want)
		}
		// SUM of squares over dim 0.
		want2 := rel.RangeSum(b.Lo, b.Hi, []vec.Poly{{0, 0, 1}, nil, nil})
		got2, err := e.SumSquares(b, 0)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got2-want2) > 1e-5*(1+math.Abs(want2)) {
			t.Fatalf("SUMSQ %v, want %v", got2, want2)
		}
		// Bilinear: Σ x0·x2.
		want3 := rel.RangeSum(b.Lo, b.Hi, []vec.Poly{{0, 1}, nil, {0, 1}})
		got3, err := e.SumProduct(b, 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got3-want3) > 1e-5*(1+math.Abs(want3)) {
			t.Fatalf("SUMPROD %v, want %v", got3, want3)
		}
	}
}

func TestStatisticalAggregates(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sizes := []int{16, 16}
	rel := randomRelation(rng, sizes, 400)
	e, err := New(rel.Cube(), sizes, 2)
	if err != nil {
		t.Fatal(err)
	}
	b := e.FullRange()
	// Reference statistics over raw tuples.
	xs := make([]float64, 0, 400)
	ys := make([]float64, 0, 400)
	for _, tp := range rel.Tuples {
		xs = append(xs, float64(tp[0]))
		ys = append(ys, float64(tp[1]))
	}
	if avg, ok, err := e.Average(b, 0); err != nil || !ok || math.Abs(avg-vec.Mean(xs)) > 1e-6 {
		t.Fatalf("Average = %v ok=%v err=%v, want %v", avg, ok, err, vec.Mean(xs))
	}
	if v, ok, err := e.Variance(b, 0); err != nil || !ok || math.Abs(v-vec.Variance(xs)) > 1e-5 {
		t.Fatalf("Variance = %v ok=%v err=%v, want %v", v, ok, err, vec.Variance(xs))
	}
	if c, ok, err := e.Covariance(b, 0, 1); err != nil || !ok ||
		math.Abs(c-vec.Covariance(xs, ys)) > 1e-5 {
		t.Fatalf("Covariance = %v, want %v", c, vec.Covariance(xs, ys))
	}
	// Covariance with itself equals variance.
	cv, _, err := e.Covariance(b, 0, 0)
	if err != nil || math.Abs(cv-vec.Variance(xs)) > 1e-5 {
		t.Fatalf("Cov(x,x) = %v, want %v", cv, vec.Variance(xs))
	}
}

func TestEmptyBoxAggregates(t *testing.T) {
	sizes := []int{16, 16}
	cube := make([]float64, 256)
	e, err := New(cube, sizes, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := e.Average(e.FullRange(), 0); err != nil || ok {
		t.Fatalf("Average on empty cube: ok=%v err=%v", ok, err)
	}
	if _, ok, _ := e.Variance(e.FullRange(), 0); ok {
		t.Fatal("Variance on empty cube should report !ok")
	}
}

func TestExactMatchesNaiveProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sizes := []int{16, 8}
		rel := randomRelation(rng, sizes, 100+rng.Intn(200))
		e, err := New(rel.Cube(), sizes, 1)
		if err != nil {
			return false
		}
		b := randomBox(rng, sizes)
		polys := []vec.Poly{nil, {1, 0.5}}
		want := rel.RangeSum(b.Lo, b.Hi, polys)
		got, _, err := e.Exact(Query{Lo: b.Lo, Hi: b.Hi, Polys: polys})
		if err != nil {
			return false
		}
		return math.Abs(got-want) <= 1e-5*(1+math.Abs(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQuerySparsityIsPolylog(t *testing.T) {
	sizes := []int{1 << 12, 1 << 10}
	cube := make([]float64, sizes[0]*sizes[1]>>0)
	_ = cube
	e, err := New(make([]float64, sizes[0]*sizes[1]), sizes, 0) // Haar
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := e.Exact(Query{Lo: []int{100, 37}, Hi: []int{3000, 900}})
	if err != nil {
		t.Fatal(err)
	}
	// Haar COUNT: ≤ ~2·log2(n) per dim.
	if st.PerDim[0] > 3*12 || st.PerDim[1] > 3*10 {
		t.Fatalf("per-dim sparsity %v too high", st.PerDim)
	}
	if st.QueryCoeffs != st.PerDim[0]*st.PerDim[1] {
		t.Fatalf("product size %d != %d·%d", st.QueryCoeffs, st.PerDim[0], st.PerDim[1])
	}
}

func TestAppendMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	sizes := []int{16, 16}
	rel := randomRelation(rng, sizes, 100)
	e, err := New(rel.Cube(), sizes, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Append 30 new tuples incrementally and to the relation.
	for i := 0; i < 30; i++ {
		tp := []int{rng.Intn(16), rng.Intn(16)}
		rel.MustAppend(tp)
		if err := e.Append(tp, 1); err != nil {
			t.Fatal(err)
		}
	}
	rebuilt, err := New(rel.Cube(), sizes, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range e.Coeffs {
		if math.Abs(e.Coeffs[i]-rebuilt.Coeffs[i]) > 1e-8 {
			t.Fatalf("coefficient %d diverged: %v vs %v", i, e.Coeffs[i], rebuilt.Coeffs[i])
		}
	}
	// And queries agree with the naive scan after the appends.
	b := Box{Lo: []int{2, 3}, Hi: []int{12, 14}}
	want := rel.RangeSum(b.Lo, b.Hi, nil)
	got, err := e.Count(b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-6*(1+want) {
		t.Fatalf("post-append COUNT %v, want %v", got, want)
	}
}

func TestAppendValidation(t *testing.T) {
	e, err := New(make([]float64, 256), []int{16, 16}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Append([]int{1}, 1); err == nil {
		t.Fatal("arity accepted")
	}
	if err := e.Append([]int{1, 99}, 1); err == nil {
		t.Fatal("out-of-domain accepted")
	}
}

func TestValidateQueryErrors(t *testing.T) {
	e, _ := New(make([]float64, 256), []int{16, 16}, 0)
	cases := []Query{
		{Lo: []int{0}, Hi: []int{1, 1}},
		{Lo: []int{0, 0}, Hi: []int{16, 1}},
		{Lo: []int{5, 0}, Hi: []int{1, 1}},
	}
	for i, q := range cases {
		if _, _, err := e.Exact(q); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestHybridAgreesWithPureWavelet(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sizes := []int{8, 256} // small sensor-id-like dim, larger time-like dim
	rel := randomRelation(rng, sizes, 600)
	cube := rel.Cube()

	pure, err := New(slices.Clone(cube), sizes, 1)
	if err != nil {
		t.Fatal(err)
	}
	bases, err := ChooseBases(sizes, QueryTemplate{RangeFraction: []float64{0.2, 0.9}, MaxDegree: 1}, DefaultCostModel)
	if err != nil {
		t.Fatal(err)
	}
	// The 8-wide dimension must pick standard (0.2·8 < L·log n).
	if !bases[0].Standard {
		t.Fatalf("small dimension should be standard, got %+v", bases[0])
	}
	if bases[1].Standard {
		t.Fatal("large dimension should be wavelet")
	}
	hyb, err := NewWithBases(cube, sizes, bases)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 15; trial++ {
		b := randomBox(rng, sizes)
		polys := []vec.Poly{nil, {0, 1}}
		q := Query{Lo: b.Lo, Hi: b.Hi, Polys: polys}
		want, _, err := pure.Exact(q)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := hyb.Exact(q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-5*(1+math.Abs(want)) {
			t.Fatalf("hybrid %v vs pure %v", got, want)
		}
	}
}

func TestHybridBeatsPureOnSelectiveSmallDims(t *testing.T) {
	// Cost comparison: a highly selective range on a small dimension should
	// touch fewer coefficients under the hybrid than under pure wavelets.
	rng := rand.New(rand.NewSource(6))
	sizes := []int{8, 256}
	rel := randomRelation(rng, sizes, 500)
	cube := rel.Cube()
	pure, _ := New(slices.Clone(cube), sizes, 0)
	hybBases := []Basis{{Standard: true}, {Filter: pure.Bases[1].Filter}}
	hyb, err := NewWithBases(cube, sizes, hybBases)
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Lo: []int{3, 0}, Hi: []int{3, 255}} // single sensor, all time
	_, stPure, _ := pure.Exact(q)
	_, stHyb, _ := hyb.Exact(q)
	if stHyb.QueryCoeffs >= stPure.QueryCoeffs {
		t.Fatalf("hybrid cost %d should beat pure %d", stHyb.QueryCoeffs, stPure.QueryCoeffs)
	}
}

func TestAllStandardMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sizes := []int{16, 16}
	rel := randomRelation(rng, sizes, 300)
	e, err := NewWithBases(rel.Cube(), sizes, AllStandard(sizes))
	if err != nil {
		t.Fatal(err)
	}
	b := randomBox(rng, sizes)
	want := rel.RangeSum(b.Lo, b.Hi, nil)
	got, err := e.Count(b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("standard-basis COUNT %v, want %v", got, want)
	}
}

func TestProgressiveConvergesAndBoundsHold(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	sizes := []int{64, 64}
	cube := synth.SmoothCube(sizes, 1)
	e, err := New(cube, sizes, 0)
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Lo: []int{5, 10}, Hi: []int{50, 60}}
	exact, _, err := e.Exact(q)
	if err != nil {
		t.Fatal(err)
	}
	steps, _, err := e.Progressive(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) == 0 {
		t.Fatal("no steps")
	}
	final := steps[len(steps)-1]
	if math.Abs(final.Estimate-exact) > 1e-6*(1+math.Abs(exact)) {
		t.Fatalf("final estimate %v vs exact %v", final.Estimate, exact)
	}
	for _, s := range steps {
		if math.Abs(s.Estimate-exact) > s.ErrorBound+1e-6 {
			t.Fatalf("error bound violated at %d coeffs: |%v - %v| > %v",
				s.Coefficients, s.Estimate, exact, s.ErrorBound)
		}
	}
	// Error bound decreases to ~0.
	if steps[len(steps)-1].ErrorBound > 1e-6*(1+math.Abs(exact)) {
		t.Fatalf("final bound %v not ≈ 0", steps[len(steps)-1].ErrorBound)
	}
	_ = rng
}

func TestProgressiveCheckpointing(t *testing.T) {
	e, _ := New(synth.SmoothCube([]int{64, 64}, 2), []int{64, 64}, 0)
	q := Query{Lo: []int{0, 0}, Hi: []int{63, 63}}
	steps, _, err := e.Progressive(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) > 12 {
		t.Fatalf("checkpointing failed: %d steps", len(steps))
	}
}

func TestEstimateWithBudget(t *testing.T) {
	e, _ := New(synth.SmoothCube([]int{64, 64}, 3), []int{64, 64}, 0)
	q := Query{Lo: []int{3, 3}, Hi: []int{60, 59}}
	exact, _, _ := e.Exact(q)
	est, bound, err := e.EstimateWithBudget(q, 20)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est-exact) > bound+1e-9 {
		t.Fatalf("budget estimate %v vs exact %v exceeds bound %v", est, exact, bound)
	}
	// Budget beyond available coefficients gives the exact answer.
	estAll, _, _ := e.EstimateWithBudget(q, 1<<20)
	if math.Abs(estAll-exact) > 1e-6*(1+math.Abs(exact)) {
		t.Fatalf("full budget %v vs exact %v", estAll, exact)
	}
}

func TestDataApproximationIsDataDependent(t *testing.T) {
	// The paper's E3 claim in miniature: with the same coefficient budget,
	// data approximation is good on smooth data and poor on white data,
	// while query approximation stays accurate on both.
	sizes := []int{64, 64}
	const budget = 150
	smooth := synth.SmoothCube(sizes, 4)
	white := synth.UniformCube(sizes, 40, 5)

	// A workload of moderate-size boxes; aggregate relative error
	// Σ|err| / Σ|exact| as in the ProPolyne evaluation.
	rng := rand.New(rand.NewSource(42))
	boxes := make([]Query, 25)
	for i := range boxes {
		lo := []int{rng.Intn(48), rng.Intn(48)}
		boxes[i] = Query{Lo: lo, Hi: []int{lo[0] + 4 + rng.Intn(12), lo[1] + 4 + rng.Intn(12)}}
	}
	relErr := func(cube []float64) (query, data float64) {
		e, err := New(cube, sizes, 1) // db2: compacts smooth data well
		if err != nil {
			t.Fatal(err)
		}
		approx := e.WithApproximation(budget)
		var qErr, dErr, denom float64
		for _, q := range boxes {
			exact, _, _ := e.Exact(q)
			est, _, _ := e.EstimateWithBudget(q, budget)
			estD, _, _ := approx.Exact(q)
			qErr += math.Abs(est - exact)
			dErr += math.Abs(estD - exact)
			denom += math.Abs(exact)
		}
		return qErr / denom, dErr / denom
	}
	qSmooth, dSmooth := relErr(smooth)
	qWhite, dWhite := relErr(white)
	if qSmooth > 0.05 || qWhite > 0.05 {
		t.Fatalf("query approximation should stay accurate: smooth %v, white %v", qSmooth, qWhite)
	}
	if dWhite < 2*dSmooth {
		t.Fatalf("data approximation should degrade on white data: smooth %v vs white %v",
			dSmooth, dWhite)
	}
}

func TestExplainQuery(t *testing.T) {
	sizes := []int{8, 256}
	bases := []Basis{{Standard: true}, {}}
	f, _ := AllWavelet([]int{256}, 1)
	bases[1] = f[0]
	e, err := NewWithBases(make([]float64, 8*256), sizes, bases)
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Lo: []int{2, 10}, Hi: []int{5, 200}, Polys: []vec.Poly{nil, {0, 1}}}
	ex, err := e.ExplainQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.PerDim) != 2 {
		t.Fatalf("plan dims %d", len(ex.PerDim))
	}
	if ex.PerDim[0].Basis != "standard" || ex.PerDim[0].Nonzeros != 4 {
		t.Fatalf("dim 0 plan: %+v", ex.PerDim[0])
	}
	if ex.PerDim[1].Basis != "db2" || ex.PerDim[1].Degree != 1 {
		t.Fatalf("dim 1 plan: %+v", ex.PerDim[1])
	}
	if ex.QueryCoeffs != ex.PerDim[0].Nonzeros*ex.PerDim[1].Nonzeros {
		t.Fatal("plan cost inconsistent")
	}
	// The plan's cost matches the executed cost.
	_, st, err := e.Exact(q)
	if err != nil {
		t.Fatal(err)
	}
	if st.QueryCoeffs != ex.QueryCoeffs {
		t.Fatalf("explain %d vs executed %d", ex.QueryCoeffs, st.QueryCoeffs)
	}
	if s := ex.String(); len(s) == 0 {
		t.Fatal("empty explain string")
	}
	if _, err := e.ExplainQuery(Query{Lo: []int{0}, Hi: []int{1, 1}}); err == nil {
		t.Fatal("bad query accepted")
	}
}

func TestCovarianceMatrixSymmetricPSDish(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	sizes := []int{16, 16, 16}
	rel := randomRelation(rng, sizes, 500)
	e, err := New(rel.Cube(), sizes, 2)
	if err != nil {
		t.Fatal(err)
	}
	m, ok, err := e.CovarianceMatrix(e.FullRange(), []int{0, 1, 2})
	if err != nil || !ok {
		t.Fatalf("CovarianceMatrix: ok=%v err=%v", ok, err)
	}
	for i := range m {
		for j := range m {
			if math.Abs(m[i][j]-m[j][i]) > 1e-9 {
				t.Fatalf("not symmetric at %d,%d", i, j)
			}
		}
		if m[i][i] < -1e-9 {
			t.Fatalf("negative variance on diagonal: %v", m[i][i])
		}
	}
}

// TestAppendBatchMatchesSequentialAppend: on a pure-wavelet engine, an
// AppendOffsets batch with duplicate cells and non-unit weights (a weight-w
// tuple is w repeats of its offset) leaves the same coefficients and
// maintained energy as appending the tuples one at a time, so the
// per-dimension vector cache and the delta accumulation both get exercised.
func TestAppendBatchMatchesSequentialAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	sizes := []int{16, 32}
	rel := randomRelation(rng, sizes, 80)
	batched, err := New(rel.Cube(), sizes, 1)
	if err != nil {
		t.Fatal(err)
	}
	oneByOne, err := New(rel.Cube(), sizes, 1)
	if err != nil {
		t.Fatal(err)
	}
	batched.Energy() // computed once; from here the appends maintain it
	oneByOne.Energy()
	var offs []uint32
	for i := 0; i < 60; i++ {
		tp := []int{rng.Intn(16) % 4, rng.Intn(32) % 8} // heavy collisions
		w := 1 + rng.Intn(3)
		if err := oneByOne.Append(tp, float64(w)); err != nil {
			t.Fatal(err)
		}
		for ; w > 0; w-- {
			offs = append(offs, uint32(wavelet.Dims(sizes).Offset(tp)))
		}
	}
	if err := batched.AppendOffsets(offs); err != nil {
		t.Fatal(err)
	}
	for i := range batched.Coeffs {
		if math.Abs(batched.Coeffs[i]-oneByOne.Coeffs[i]) > 1e-8 {
			t.Fatalf("coefficient %d diverged: %v vs %v", i, batched.Coeffs[i], oneByOne.Coeffs[i])
		}
	}
	if got, want := batched.Energy(), oneByOne.Energy(); math.Abs(got-want) > 1e-9*want {
		t.Fatalf("energy: batched %v, one by one %v", got, want)
	}
}

// TestAppendOffsetsValidationIsAtomic: an offset past the cube anywhere in
// a batch rejects the whole batch, leaving coefficients and energy as they
// were; an empty batch is a no-op.
func TestAppendOffsetsValidationIsAtomic(t *testing.T) {
	f, err := wavelet.ForDegree(1)
	if err != nil {
		t.Fatal(err)
	}
	dims := []int{16, 16}
	for _, bases := range [][]Basis{{{Standard: true}, {Filter: f}}, AllStandard(dims)} {
		rel := randomRelation(rand.New(rand.NewSource(14)), dims, 80)
		e, err := NewWithBases(rel.Cube(), dims, bases)
		if err != nil {
			t.Fatal(err)
		}
		before := append([]float64(nil), e.Coeffs...)
		energy := e.Energy()
		if err := e.AppendOffsets([]uint32{3, 7, uint32(len(before)), 3}); err == nil {
			t.Fatal("offset past the cube accepted")
		}
		for i := range before {
			if e.Coeffs[i] != before[i] {
				t.Fatal("rejected batch mutated the engine")
			}
		}
		if e.Energy() != energy {
			t.Fatal("rejected batch moved the energy")
		}
		if err := e.AppendOffsets(nil); err != nil {
			t.Fatalf("empty batch: %v", err)
		}
	}
}
