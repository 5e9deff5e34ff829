package experiments

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"time"

	"aims/internal/datacube"
	"aims/internal/propolyne"
	"aims/internal/synth"
	"aims/internal/vec"
)

// E3Result captures progressive-accuracy trajectories per dataset and
// method.
type E3Result struct {
	Budgets []int
	// RelErr[dataset][method][budgetIdx]; methods: "query", "data".
	RelErr map[string]map[string][]float64
}

// RunE3 reproduces the central ProPolyne claim (§3.3): progressive query
// approximation reaches low relative error long before exact completion
// and is consistent across datasets, while classical wavelet data
// approximation varies wildly with the data's energy distribution.
func RunE3(w io.Writer) E3Result {
	dims := []int{128, 128}
	datasets := map[string][]float64{
		"smooth (atmospheric)": synth.SmoothCube(dims, 11),
		"zipf (skewed)":        synth.ZipfCube(dims, 60000, 1.2, 12),
		"uniform (white)":      synth.UniformCube(dims, 40, 13),
	}
	budgets := []int{10, 25, 50, 100, 200, 400, 800}
	rng := rand.New(rand.NewSource(14))
	const queries = 40
	type boxq struct{ lo, hi []int }
	workload := make([]boxq, queries)
	for i := range workload {
		lo := []int{rng.Intn(100), rng.Intn(100)}
		workload[i] = boxq{lo, []int{lo[0] + 6 + rng.Intn(20), lo[1] + 6 + rng.Intn(20)}}
	}

	res := E3Result{Budgets: budgets, RelErr: map[string]map[string][]float64{}}
	tb := &Table{
		Title:   "E3 — Progressive accuracy: query vs data approximation (COUNT, 40 queries)",
		Columns: []string{"dataset", "method", "k=10", "k=25", "k=50", "k=100", "k=200", "k=400", "k=800"},
	}
	for _, name := range []string{"smooth (atmospheric)", "zipf (skewed)", "uniform (white)"} {
		cube := datasets[name]
		e, err := propolyne.New(cube, dims, 1)
		if err != nil {
			panic(err)
		}
		res.RelErr[name] = map[string][]float64{}
		queryRow := make([]interface{}, 0, len(budgets)+2)
		dataRow := make([]interface{}, 0, len(budgets)+2)
		queryRow = append(queryRow, name, "query approx (ProPolyne)")
		dataRow = append(dataRow, "", "data approx (top-k)")
		for _, k := range budgets {
			approx := e.WithApproximation(k)
			var qErr, dErr, denom float64
			for _, bq := range workload {
				q := propolyne.Query{Lo: bq.lo, Hi: bq.hi}
				exact, _, _ := e.Exact(q)
				est, _, _ := e.EstimateWithBudget(q, k)
				estD, _, _ := approx.Exact(q)
				qErr += math.Abs(est - exact)
				dErr += math.Abs(estD - exact)
				denom += math.Abs(exact)
			}
			res.RelErr[name]["query"] = append(res.RelErr[name]["query"], qErr/denom)
			res.RelErr[name]["data"] = append(res.RelErr[name]["data"], dErr/denom)
			queryRow = append(queryRow, qErr/denom)
			dataRow = append(dataRow, dErr/denom)
		}
		tb.AddRow(queryRow...)
		tb.AddRow(dataRow...)
	}
	tb.Note("k = retrieved coefficients per query (query approx) / kept coefficients total (data approx)")
	tb.Note("shape claim: query approximation always CONVERGES to the exact answer as k grows,")
	tb.Note("while data approximation PLATEAUS at a data-dependent error floor (compare k=800 rows:")
	tb.Note("the floor varies by an order of magnitude across datasets — 'varies wildly', §3.3)")
	tb.Render(w)
	return res
}

// E4Result reports exact query/update costs.
type E4Result struct {
	Ns            []int
	QueryCoeffs   []int // ProPolyne touched coefficients (COUNT)
	PrefixLookups int
	ScanCells     []int
	ProTime       []time.Duration
	ScanTime      []time.Duration
}

// RunE4 reproduces the exact-cost claim (§3.3): ProPolyne answers exact
// polynomial range-sums touching only polylog coefficients — comparable to
// the best exact MOLAP (prefix sums), and orders of magnitude below a
// naive scan — while also supporting polynomial measures prefix sums do
// not.
func RunE4(w io.Writer) E4Result {
	var res E4Result
	tb := &Table{
		Title:   "E4 — Exact evaluation cost (2-D SUM query, half-domain range)",
		Columns: []string{"N per dim", "scan cells", "prefix-sum lookups", "propolyne coeffs", "scan time", "propolyne time"},
	}
	for _, n := range []int{64, 128, 256, 512} {
		dims := []int{n, n}
		cube := synth.ZipfCube(dims, 20*n, 1.2, int64(n))
		e, err := propolyne.New(slices.Clone(cube), dims, 1)
		if err != nil {
			panic(err)
		}
		ps := datacube.NewPrefixSum(cube, dims)
		lo := []int{n / 8, n / 8}
		hi := []int{5 * n / 8, 5 * n / 8}
		polys := []vec.Poly{nil, {0, 1}}
		q := propolyne.Query{Lo: lo, Hi: hi, Polys: polys}

		t0 := time.Now()
		want := datacube.CubeRangeSum(cube, dims, lo, hi, polys)
		scanTime := time.Since(t0)

		t0 = time.Now()
		got, st, err := e.Exact(q)
		proTime := time.Since(t0)
		if err != nil {
			panic(err)
		}
		if math.Abs(got-want) > 1e-4*(1+math.Abs(want)) {
			panic(fmt.Sprintf("E4: propolyne %v != scan %v", got, want))
		}
		scanCells := (hi[0] - lo[0] + 1) * (hi[1] - lo[1] + 1)
		res.Ns = append(res.Ns, n)
		res.QueryCoeffs = append(res.QueryCoeffs, st.QueryCoeffs)
		res.ScanCells = append(res.ScanCells, scanCells)
		res.ProTime = append(res.ProTime, proTime)
		res.ScanTime = append(res.ScanTime, scanTime)
		res.PrefixLookups = ps.Lookups()
		tb.AddRow(n, scanCells, ps.Lookups(), st.QueryCoeffs,
			scanTime.Round(time.Microsecond).String(), proTime.Round(time.Microsecond).String())
	}
	tb.Note("prefix sums answer COUNT/SUM only and cost O(N^d) space per measure polynomial;")
	tb.Note("ProPolyne answers any degree-bounded polynomial from one transform (4 lookups vs polylog coeffs)")
	tb.Render(w)
	return res
}

// E5Result reports the hybrid comparison.
type E5Result struct {
	PureCoeffs, HybridCoeffs, RelationalCells int
}

// RunE5 reproduces the §3.3.1 hybridisation claim on the immersidata
// schema (sensor_id, t, value): selective queries on the tiny sensor_id
// dimension make the hybrid dominate both pure strategies.
func RunE5(w io.Writer) E5Result {
	sizes := []int{8, 512, 64} // sensor_id, time, value-bin
	rng := rand.New(rand.NewSource(15))
	rel := datacube.NewRelation(datacube.Schema{
		Names: []string{"sensor", "t", "value"},
		Sizes: sizes,
	})
	for i := 0; i < 40000; i++ {
		s := rng.Intn(8)
		t := rng.Intn(512)
		v := int(30 + 10*math.Sin(float64(t)/40) + 3*rng.NormFloat64() + float64(2*s))
		if v < 0 {
			v = 0
		}
		if v > 63 {
			v = 63
		}
		rel.MustAppend([]int{s, t, v})
	}
	cube := rel.Cube()

	pure, err := propolyne.New(slices.Clone(cube), sizes, 1)
	if err != nil {
		panic(err)
	}
	bases, err := propolyne.ChooseBases(sizes, propolyne.QueryTemplate{
		RangeFraction: []float64{1.0 / 8, 0.3, 1},
		MaxDegree:     1,
	}, propolyne.DefaultCostModel)
	if err != nil {
		panic(err)
	}
	hyb, err := propolyne.NewWithBases(cube, sizes, bases)
	if err != nil {
		panic(err)
	}

	// Workload: per-sensor SUM(value) over a time window.
	q := propolyne.Query{
		Lo:    []int{3, 64, 0},
		Hi:    []int{3, 217, 63},
		Polys: []vec.Poly{nil, nil, {0, 1}},
	}
	wantNaive := rel.RangeSum(q.Lo, q.Hi, q.Polys)
	gotPure, stPure, _ := pure.Exact(q)
	gotHyb, stHyb, _ := hyb.Exact(q)
	if math.Abs(gotPure-wantNaive) > 1e-4*(1+math.Abs(wantNaive)) ||
		math.Abs(gotHyb-wantNaive) > 1e-4*(1+math.Abs(wantNaive)) {
		panic("E5: engines disagree with the naive scan")
	}
	relationalCells := (q.Hi[0] - q.Lo[0] + 1) * (q.Hi[1] - q.Lo[1] + 1) * (q.Hi[2] - q.Lo[2] + 1)

	basisDesc := func(b []propolyne.Basis) string {
		out := ""
		for i, x := range b {
			if i > 0 {
				out += ","
			}
			if x.Standard {
				out += "std"
			} else {
				out += x.Filter.Name
			}
		}
		return out
	}

	tb := &Table{
		Title:   "E5 — Hybrid ProPolyne on (sensor_id, t, value): SUM(value), one sensor, 30% time",
		Columns: []string{"engine", "bases", "touched coeffs/cells"},
	}
	tb.AddRow("pure relational (scan box)", "std,std,std", relationalCells)
	tb.AddRow("pure ProPolyne", basisDesc(pure.Bases), stPure.QueryCoeffs)
	tb.AddRow("hybrid (chosen)", basisDesc(hyb.Bases), stHyb.QueryCoeffs)
	tb.Note("paper: the best hybridization performs at least as well as pure relational or pure ProPolyne")
	tb.Render(w)
	return E5Result{PureCoeffs: stPure.QueryCoeffs, HybridCoeffs: stHyb.QueryCoeffs, RelationalCells: relationalCells}
}
