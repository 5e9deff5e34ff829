package main

import (
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"aims/internal/core"
	"aims/internal/stream"
	"aims/internal/wire"
)

func TestPercentile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5}
	for _, tc := range []struct{ p, want float64 }{
		{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6},
	} {
		if got := percentile(sorted, tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	l := latencies{3 * time.Millisecond, time.Millisecond, 2 * time.Millisecond}
	if got := l.ms(0.5); got != 2 {
		t.Errorf("latency p50 = %v ms, want 2", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},  // overlaps a: covered once
		{Name: "c", Start: 90, End: 120, Parent: 0}, // runs past the parent: clipped
		{Name: "leaf", Start: 12, End: 20, Parent: 1},
	}
	want := []int64{100 - (50 + 10), 30 - 8, 30, 30, 8}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	byName := selfByName(spans)
	if byName["root"].TotalUS != 0.04 || byName["root"].Count != 1 {
		t.Errorf("root stat = %+v", byName["root"])
	}
	var off *tracer
	if i := off.begin("x", -1, 0); i != -1 {
		t.Errorf("nil tracer opened span %d", i)
	}
	off.end(-1)
}

func TestSameSeedSameSchedule(t *testing.T) {
	build := func(seed int64) string {
		rng := rand.New(rand.NewSource(seed))
		fixed := fixedWindowSet(rng, 28, 40)
		live := liveQuerySchedule(rng, 28, fixed, 0, 2*time.Second, 2.56)
		fl := fleetSchedule(rng, fixed, fixedWindowSet(rng, trackerChannels, 20), 128, 2*time.Second)
		return scheduleHash(live, fl)
	}
	if a, b := build(7), build(7); a != b {
		t.Errorf("same seed, different schedules: %s vs %s", a, b)
	}
	if a, b := build(7), build(8); a == b {
		t.Errorf("different seeds, same schedule %s", a)
	}

	rng := rand.New(rand.NewSource(1))
	live := liveQuerySchedule(rng, 28, fixedWindowSet(rng, 28, 40), 0, 2*time.Second, 2.56)
	mix := map[opKind]int{}
	for i, o := range live {
		mix[o.kind]++
		if i > 0 && o.due < live[i-1].due {
			t.Fatalf("op %d is due before op %d", i, i-1)
		}
	}
	if mix[opIngest] != 100 || mix[opExact] != 40 || mix[opApprox] != 40 || mix[opProg] != 20 {
		t.Errorf("two seconds of live_query hold %v", mix)
	}
	fl := fleetSchedule(rng, fixedWindowSet(rng, 28, 20), fixedWindowSet(rng, trackerChannels, 20), 128, 2*time.Second)
	fmix := map[opKind]int{}
	for _, o := range fl {
		fmix[o.kind]++
	}
	if fmix[opFleetExact] != 25 || fmix[opFleetApprox] != 15 || fmix[opFleetIDs] != 10 {
		t.Errorf("two seconds of fleet_scan hold %v", fmix)
	}
}

// TestReferenceModel holds the reference's closed-form aggregates to a
// brute-force pass over the plain slice of frames, and the slice to a real
// LiveStore: what the harness will demand of the server.
func TestReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	frames := make([][]float64, 97) // not a divisor of anything below
	for i := range frames {
		frames[i] = []float64{rng.NormFloat64(), 10 * rng.Float64(), float64(i % 7)}
	}
	m := &sessionModel{name: "ref", rate: 100, horizon: 1000, rec: newRecording(frames), offset: 13}
	ls, err := core.NewLiveStore(m.rec.mins, m.rec.maxs, core.LiveStoreConfig{Rate: m.rate, HorizonTicks: m.horizon})
	if err != nil {
		t.Fatal(err)
	}
	const sent = 1500 // runs past the horizon: the last bucket clamps
	var sentFrames []stream.Frame
	for k := 0; k < sent; k += 100 {
		batch := m.fill(nil, k, 100)
		sentFrames = append(sentFrames, batch...)
		if n, err := ls.AppendFrames(batch); err != nil || n != 100 {
			t.Fatalf("append: %d, %v", n, err)
		}
	}
	tpb := m.ticksPerBucket()
	for trial := 0; trial < 200; trial++ {
		ch := rng.Intn(m.width())
		t0 := rng.Float64()*10.9 - 1 // starts inside the 10 s horizon
		t1 := t0 + rng.Float64()*8
		n := 100 * (1 + rng.Intn(sent/100))

		// Brute force over the plain slice: a frame counts when its time
		// bucket lies in the query's bucket range.
		lo, hi := int(math.Max(t0, 0)*m.rate/float64(tpb)), int(math.Max(t1, 0)*m.rate/float64(tpb))
		hi = max(min(hi, timeBuckets-1), lo)
		var cnt, sum, sumSq float64
		for i, f := range sentFrames[:n] {
			if b := min(i/tpb, timeBuckets-1); b >= lo && b <= hi {
				cnt++
				sum += f.Values[ch]
				sumSq += f.Values[ch] * f.Values[ch]
			}
		}
		gc, gs, gq := m.moments(ch, t0, t1, n)
		if gc != cnt || math.Abs(gs-sum) > 1e-6 || math.Abs(gq-sumSq) > 1e-6 {
			t.Fatalf("moments(ch %d, [%v,%v], n %d) = %v %v %v, brute force %v %v %v", ch, t0, t1, n, gc, gs, gq, cnt, sum, sumSq)
		}
		if n != sent {
			continue
		}
		// The full slice against the store the frames went into.
		count, _ := ls.CountSamples(ch, t0, t1)
		avg, aok, _ := ls.AverageValue(ch, t0, t1)
		vr, vok, _ := ls.VarianceValue(ch, t0, t1)
		est, bound, err := ls.ApproximateCount(ch, t0, t1, approxBudget)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			q wire.Query
			r wire.Result
		}{
			{wire.Query{Kind: wire.QueryCount}, wire.Result{Value: count, OK: true}},
			{wire.Query{Kind: wire.QueryAverage}, wire.Result{Value: avg, OK: aok}},
			{wire.Query{Kind: wire.QueryVariance}, wire.Result{Value: vr, OK: vok}},
			{wire.Query{Kind: wire.QueryApproxCount}, wire.Result{Value: est, Bound: bound, OK: true}},
		} {
			tc.q.Channel, tc.q.T0, tc.q.T1 = uint16(ch), t0, t1
			if err := m.checkResult(tc.q, []wire.Result{tc.r}, sent); err != nil {
				t.Fatalf("kind %d over [%v,%v] ch %d: %v", tc.q.Kind, t0, t1, ch, err)
			}
		}
	}

	// And the checks do fail when the answer is wrong.
	q := wire.Query{Kind: wire.QueryCount, T0: 0, T1: 5}
	cnt, _, _ := m.moments(0, 0, 5, sent)
	if err := m.checkResult(q, []wire.Result{{Value: cnt + 1, OK: true}}, sent); err == nil {
		t.Error("an off-by-one COUNT passed")
	}
	if err := checkEstimate(cnt+10, 5, cnt); err == nil {
		t.Error("an estimate outside its bound passed")
	}
	q.Kind = wire.QueryAverage
	if err := m.checkResult(q, []wire.Result{{Value: 1e9, OK: true}}, sent); err == nil {
		t.Error("a wild AVERAGE passed")
	}
}

func TestProcParsers(t *testing.T) {
	if d, err := parseSchedstat("123456789 42 7\n"); err != nil || d != 123456789*time.Nanosecond {
		t.Errorf("parseSchedstat = %v, %v", d, err)
	}
	if _, err := parseSchedstat(""); err == nil {
		t.Error("empty schedstat parsed")
	}
	vals, err := parseExposition(strings.NewReader(
		"# HELP x\nx_total 3\nh_count{mode=\"a\"} 2\nh_bucket{le=\"1\"} 4 # {trace_id=\"ab\"} 0.5\n"))
	if err != nil || vals["x_total"] != 3 || vals[`h_count{mode="a"}`] != 2 || vals[`h_bucket{le="1"}`] != 4 {
		t.Errorf("parseExposition = %v, %v", vals, err)
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the metrics and workloads the
// harness defines, and to the limits of the benchmark contract.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
		Why    string   `json:"why"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []entry  `json:"workloads"`
		EndToEnd   []entry  `json:"end_to_end"`
		PerLayer   []entry  `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, harness has %q: %q", i, doc.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why is %d characters", w.name, len(w.why))
		}
	}
	compare := func(kind string, got []entry, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the harness", len(got), kind, len(want))
		}
		for i, d := range want {
			better := "lower"
			if d.higher {
				better = "higher"
			}
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != better {
				t.Errorf("%s metric %d: %+v, harness has %+v", kind, i, g, d)
			}
			if bounded && (g.Bound == nil || *g.Bound != d.bound || d.bound <= 0 || d.bound > 0.25) {
				t.Errorf("%s metric %s: bound %v, harness has %v", kind, d.name, g.Bound, d.bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s metric %s carries a bound", kind, d.name)
			}
			if len(d.name) > 64 || len(d.unit) > 16 {
				t.Errorf("%s metric %s (%s) exceeds the name or unit limit", kind, d.name, d.unit)
			}
		}
	}
	compare("end-to-end", doc.EndToEnd, endToEnd, true)
	compare("per-layer", doc.PerLayer, perLayer, false)
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("paths = %v", doc.Paths)
	}
}

// TestIngestMemSmoke runs the whole harness once, small: build the server,
// run it as a child, push frames for half a second, verify every answer.
func TestIngestMemSmoke(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	cfg := runConfig{
		workload: "ingest_mem", seed: 1,
		warmup: 200 * time.Millisecond, window: 500 * time.Millisecond,
		setups: 1, workDir: t.TempDir(), out: io.Discard,
	}
	if cfg.serverBin, cfg.buildTime, err = buildServer(root, cfg.workDir); err != nil {
		t.Fatal(err)
	}
	res, err := runWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.checks.failed != 0 || res.checks.attempted == 0 {
		t.Fatalf("%d of %d ops failed: %v", res.checks.failed, res.checks.attempted, res.checks.first)
	}
	for _, d := range endToEnd {
		if v := res.values[d.name]; !(v > 0) {
			t.Errorf("%s = %v, want a positive measurement", d.name, v)
		}
	}
}
