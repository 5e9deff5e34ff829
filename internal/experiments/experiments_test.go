package experiments

import (
	"bytes"
	"io"
	"slices"
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tb := &Table{Title: "demo", Columns: []string{"a", "bb"}}
	tb.AddRow(1, 2.5)
	tb.AddRow("x", 12345.6)
	tb.Note("footnote %d", 7)
	var buf bytes.Buffer
	tb.Render(&buf)
	out := buf.String()
	for _, want := range []string{"== demo ==", "a", "bb", "2.5000", "12346", "footnote 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestRunT1Lists28Sensors(t *testing.T) {
	if got := RunT1(io.Discard); got != 28 {
		t.Fatalf("registry size = %d", got)
	}
}

func TestRunE1AdaptiveWins(t *testing.T) {
	res := RunE1(io.Discard)
	if res.PolicyBytes["adaptive"] >= res.PolicyBytes["fixed"] {
		t.Fatalf("adaptive %d should beat fixed %d", res.PolicyBytes["adaptive"], res.PolicyBytes["fixed"])
	}
	if res.PolicyBytes["adaptive"] >= res.RawBytes/2 {
		t.Fatalf("adaptive %d vs raw %d: savings too weak", res.PolicyBytes["adaptive"], res.RawBytes)
	}
	// Combined adaptive+ADPCM must not blow up above adaptive alone.
	if res.AdaptivePlusADPCMBytes >= res.PolicyBytes["adaptive"] {
		t.Fatalf("adaptive+adpcm %d ≥ adaptive %d", res.AdaptivePlusADPCMBytes, res.PolicyBytes["adaptive"])
	}
}

func TestRunE2TilingWithinBoundAndAboveSequential(t *testing.T) {
	res := RunE2(io.Discard)
	for i, b := range res.BlockSizes {
		if res.Tiling[i] > res.Bound[i]+1e-9 {
			t.Errorf("B=%d: tiling %v exceeds bound %v", b, res.Tiling[i], res.Bound[i])
		}
		if res.Tiling[i] <= res.Sequential[i] {
			t.Errorf("B=%d: tiling %v not above sequential %v", b, res.Tiling[i], res.Sequential[i])
		}
	}
}

func TestRunE3ShapeClaims(t *testing.T) {
	res := RunE3(io.Discard)
	last := len(res.Budgets) - 1
	for ds, methods := range res.RelErr {
		q := methods["query"]
		d := methods["data"]
		// Query approximation converges to (near) zero.
		if q[last] > 0.01 {
			t.Errorf("%s: query approx final error %v", ds, q[last])
		}
		// Data approximation plateaus above the query's final error on the
		// non-smooth datasets.
		if ds != "smooth (atmospheric)" && d[last] < q[last] {
			t.Errorf("%s: data approx %v below query %v at max budget", ds, d[last], q[last])
		}
	}
	// The data-approximation floor varies across datasets by ≥ 5×.
	floorSmooth := res.RelErr["smooth (atmospheric)"]["data"][last]
	floorWhite := res.RelErr["uniform (white)"]["data"][last]
	if floorWhite < 5*floorSmooth {
		t.Errorf("data-approx floors too close: smooth %v vs white %v", floorSmooth, floorWhite)
	}
}

func TestRunE4PolylogCost(t *testing.T) {
	res := RunE4(io.Discard)
	n := len(res.Ns)
	// Touched coefficients grow far slower than scanned cells.
	growthCoeffs := float64(res.QueryCoeffs[n-1]) / float64(res.QueryCoeffs[0])
	growthCells := float64(res.ScanCells[n-1]) / float64(res.ScanCells[0])
	if growthCoeffs*8 > growthCells {
		t.Fatalf("coefficient growth %v not ≪ cell growth %v", growthCoeffs, growthCells)
	}
}

func TestRunE5HybridDominates(t *testing.T) {
	res := RunE5(io.Discard)
	if res.HybridCoeffs >= res.PureCoeffs {
		t.Fatalf("hybrid %d not below pure %d", res.HybridCoeffs, res.PureCoeffs)
	}
	if res.HybridCoeffs >= res.RelationalCells {
		t.Fatalf("hybrid %d not below relational %d", res.HybridCoeffs, res.RelationalCells)
	}
}

func TestRunE6Choices(t *testing.T) {
	res := RunE6(io.Discard)
	if res.Chosen["sensor-id marginal"] != "" {
		t.Errorf("spiky marginal chose %q, want standard", res.Chosen["sensor-id marginal"])
	}
	if res.Chosen["atmospheric row"] == "" {
		t.Error("smooth signal should choose a wavelet basis")
	}
	for name, c := range res.Compaction {
		if c[2]+1e-9 < c[1] && res.Chosen[name] != "" {
			t.Errorf("%s: best packet %v below pyramid %v", name, c[2], c[1])
		}
	}
}

func TestRunE7StreamQuality(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	res := RunE7(io.Discard)
	if res.StreamRecall < 0.8 {
		t.Fatalf("stream recall %v", res.StreamRecall)
	}
	if res.StreamAccuracy < 0.8 {
		t.Fatalf("stream accuracy %v", res.StreamAccuracy)
	}
	if res.IsolatedAccuracy["weighted-sum SVD"] < 0.9 {
		t.Fatalf("isolated SVD accuracy at low noise %v", res.IsolatedAccuracy["weighted-sum SVD"])
	}
}

func TestRunE8AccuracyBand(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	res := RunE8(io.Discard)
	svm := res.Accuracy["linear SVM (paper's method)"]
	if svm < 0.75 || svm > 0.98 {
		t.Fatalf("SVM accuracy %v outside the plausible band around the paper's 0.86", svm)
	}
	if res.ADHDHitRate >= res.ControlHitRate {
		t.Fatal("ADHD hit rate should be below control")
	}
	if res.ADHDRT <= res.ControlRT {
		t.Fatal("ADHD reaction time should exceed control")
	}
}

func TestRunE9ExactAgreement(t *testing.T) {
	res := RunE9(io.Discard)
	// Moment entries reach ~5e5; 1e-4 absolute is ~1e-9 relative.
	if res.MaxMomentError > 1e-4 {
		t.Fatalf("moment error %v", res.MaxMomentError)
	}
	if res.SignatureSimilarity < 1-1e-6 {
		t.Fatalf("signature similarity %v", res.SignatureSimilarity)
	}
}

func TestRunE10IncrementalFaster(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-heavy")
	}
	res := RunE10(io.Discard)
	// At the largest window the incremental path must win clearly.
	last := len(res.Speedup) - 1
	if res.Speedup[last] < 1.2 {
		t.Fatalf("largest-window speedup %v", res.Speedup[last])
	}
}

func TestRunE11LosslessKeepsEverything(t *testing.T) {
	res := RunE11(io.Discard)
	// Rows alternate lossless/realtime; lossless rows must have 0 drops.
	for i := 0; i < len(res.Dropped); i += 2 {
		if res.Dropped[i] != 0 {
			t.Fatalf("lossless run %d dropped %d", i, res.Dropped[i])
		}
	}
}

func TestRunE12ImportanceConverges(t *testing.T) {
	res := RunE12(io.Discard)
	last := len(res.ErrImportance) - 1
	if res.ErrImportance[last] > 1e-9 {
		t.Fatalf("final importance error %v", res.ErrImportance[last])
	}
	// Half-way through the fetches the importance order is already tight.
	mid := len(res.ErrImportance) / 2
	if res.ErrImportance[mid] > 0.01 {
		t.Fatalf("mid-fetch importance error %v", res.ErrImportance[mid])
	}
}

func TestAllRunnersRegistered(t *testing.T) {
	// Exactly the paper's tables, in DESIGN.md order: the middle-tier timing
	// experiments (E13–E20) were retired in favour of bench/ and deterministic
	// tests in the packages they timed, and must not come back as a second
	// measuring instrument.
	want := []string{"T1", "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10",
		"E11", "E12", "A1", "A2", "A3", "A4", "A5"}
	var got []string
	for _, r := range All() {
		got = append(got, r.ID)
		if r.Claim == "" || r.Run == nil {
			t.Fatalf("incomplete runner %s", r.ID)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("runners = %v, want %v", got, want)
	}
}

func TestRunA1SharingAndOrdering(t *testing.T) {
	res := RunA1(io.Discard)
	if res.Total <= res.Distinct {
		t.Fatalf("no sharing: %d vs %d", res.Total, res.Distinct)
	}
	// Importance ordering beats the naive scan by a wide margin at half
	// the fetches.
	if res.WorstCaseAdvantage < 3 {
		t.Fatalf("ordered/naive bound advantage %v < 3", res.WorstCaseAdvantage)
	}
}

func TestRunA2ProjectionTrade(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	res := RunA2(io.Discard)
	last := len(res.Dims) - 1
	// Full dimension is the accuracy ceiling; smallest projection must be
	// meaningfully faster.
	if res.Accuracy[last] < res.Accuracy[0]-1e-9 {
		t.Fatalf("full-dim accuracy %v below projected %v", res.Accuracy[last], res.Accuracy[0])
	}
	if res.PerPair[0]*2 > res.PerPair[last] {
		t.Fatalf("projection speedup weak: %v vs %v", res.PerPair[0], res.PerPair[last])
	}
}

func TestRunA3CacheAblation(t *testing.T) {
	res := RunA3(io.Discard)
	// With a tiny pool, tiling's locality must dominate.
	if res.TilingHit[1] <= res.SeqHit[1] {
		t.Fatalf("tiling hit %v not above sequential %v at 4 frames",
			res.TilingHit[1], res.SeqHit[1])
	}
	// Hit rates are monotone-ish in capacity.
	for i := 1; i < len(res.TilingHit); i++ {
		if res.TilingHit[i]+1e-9 < res.TilingHit[i-1] {
			t.Fatalf("tiling hit rate decreased with capacity: %v", res.TilingHit)
		}
	}
}

func TestRunA5ThroughputPositive(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-heavy")
	}
	res := RunA5(io.Discard)
	for i, q := range res.QueriesPerS {
		if q <= 0 {
			t.Fatalf("readers=%d: qps %v", res.Readers[i], q)
		}
	}
	// More readers must not collapse throughput below half of single-reader.
	last := len(res.QueriesPerS) - 1
	if res.QueriesPerS[last] < res.QueriesPerS[0]/2 {
		t.Fatalf("8-reader throughput %v collapsed vs 1-reader %v",
			res.QueriesPerS[last], res.QueriesPerS[0])
	}
}

func TestRunA4RefinementTightens(t *testing.T) {
	res := RunA4(io.Discard)
	for i, k := range res.Budgets {
		if res.RefinedBound[i] > res.LooseBound[i]+1e-9 {
			t.Fatalf("budget %d: refined %v looser than global %v", k, res.RefinedBound[i], res.LooseBound[i])
		}
		if res.TrueError[i] > res.RefinedBound[i]+1e-6 {
			t.Fatalf("budget %d: refined bound %v violated by true error %v", k, res.RefinedBound[i], res.TrueError[i])
		}
	}
	// Somewhere the refinement is at least 2× tighter.
	won := false
	for i := range res.Budgets {
		if res.RefinedBound[i] > 0 && res.LooseBound[i] > 2*res.RefinedBound[i] {
			won = true
		}
	}
	if !won {
		t.Fatal("refinement never clearly tighter")
	}
}
