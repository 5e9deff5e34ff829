package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"time"

	"aims/internal/core"
	"aims/internal/fleet"
	"aims/internal/propolyne"
	"aims/internal/synth"
	"aims/internal/vec"
	"aims/internal/wire"
)

// E17Result reports query_plan: compiled-plan caching vs per-query
// compilation, single-engine and fleet-wide.
type E17Result struct {
	// Single engine: one degree-2 range-sum on a 512×512 cube.
	ColdUS   float64 // compile + evaluate, per query
	CachedUS float64 // cache hit + evaluate, per query
	Speedup  float64 // ColdUS / CachedUS

	// Fleet: approximate COUNT over Sessions same-geometry live sessions.
	Sessions       int
	FleetNoCacheUS float64 // per-session µs, plan cache disabled (compile per session)
	FleetSharedUS  float64 // per-session µs, shared warm cache (compile once per geometry)
	FleetSpeedup   float64
}

// timeLoop runs f repeatedly until enough wall time accumulates for a
// stable figure and returns the mean per-call microseconds.
func timeLoop(f func()) float64 {
	reps := 0
	var total time.Duration
	for total < 100*time.Millisecond || reps < 5 {
		t0 := time.Now()
		f()
		total += time.Since(t0)
		reps++
	}
	return float64(total.Microseconds()) / float64(reps)
}

// RunE17 measures the query_plan experiment. Part one isolates what a
// compiled plan saves on a single engine: a degree-2 polynomial range-sum
// over a 512×512 wavelet cube evaluated cold (lazy-transform compile +
// tensor walk every time — the pre-plan behaviour) versus through a warm
// PlanCache (key lookup + allocation-free sparse dot product). Part two
// runs a fleet query on the approximate-COUNT path: N sessions of one
// device class share engine geometry, so the shared cache compiles
// one plan per fleet query where the uncached path compiles N times.
func RunE17(w io.Writer) E17Result {
	var res E17Result

	// --- Part 1: single-engine cold vs cached -------------------------
	dims := []int{512, 512}
	cube := synth.ZipfCube(dims, 100000, 1.2, 3)
	e, err := propolyne.New(cube, dims, 2)
	if err != nil {
		panic(err)
	}
	q := propolyne.Query{
		Lo:    []int{17, 40},
		Hi:    []int{400, 480},
		Polys: []vec.Poly{nil, {0, 0, 1}}, // Σ value² over the box
	}
	cache := propolyne.NewPlanCache(1 << 16)
	warm, err := cache.Lookup(e, q)
	if err != nil {
		panic(err)
	}
	want := e.EvalPlan(warm)

	res.ColdUS = timeLoop(func() {
		p, err := e.CompilePlan(q)
		if err != nil {
			panic(err)
		}
		if got := e.EvalPlan(p); math.Float64bits(got) != math.Float64bits(want) {
			panic(fmt.Sprintf("cold answer drifted: %v vs %v", got, want))
		}
	})
	res.CachedUS = timeLoop(func() {
		p, err := cache.Lookup(e, q)
		if err != nil {
			panic(err)
		}
		if got := e.EvalPlan(p); math.Float64bits(got) != math.Float64bits(want) {
			panic(fmt.Sprintf("cached answer drifted: %v vs %v", got, want))
		}
	})
	res.Speedup = res.ColdUS / res.CachedUS

	tb := &Table{
		Title:   "E17 — query_plan: compiled plans make repeated queries a pure dot product",
		Columns: []string{"path", "per query (µs)", "speedup"},
	}
	tb.AddRow("cold (compile + evaluate)", res.ColdUS, "1.0×")
	tb.AddRow("cached plan (hit + dot)", res.CachedUS, fmt.Sprintf("%.1f×", res.Speedup))

	// --- Part 2: fleet approximate COUNT, shared vs per-session compile
	const (
		frames = 256
		rate   = 100.0
	)
	res.Sessions = 2000
	workers := runtime.NumCPU()
	if workers > 16 {
		workers = 16
	}
	rng := rand.New(rand.NewSource(17))
	sessions := make([]fleet.Session, res.Sessions)
	for i := range sessions {
		ls, err := core.NewLiveStore([]float64{-1}, []float64{1}, core.LiveStoreConfig{
			Rate: rate, HorizonTicks: frames, TimeBuckets: 64, ValueBins: 16,
		})
		if err != nil {
			panic(err)
		}
		for tick := 0; tick < frames; tick++ {
			if err := ls.AppendFrame(tick, []float64{rng.Float64()*2 - 1}); err != nil {
				panic(err)
			}
		}
		sessions[i] = fleet.Session{ID: uint64(i + 1), Class: "sim", Store: ls}
	}
	req := fleet.Request{
		Kind: wire.QueryApproxCount, Channel: 0, T0: 0, T1: float64(frames) / rate,
		Arg: 64, Scope: wire.FleetScope{Class: "sim"},
	}
	cfg := fleet.Config{Workers: workers, Timeout: time.Minute}
	runFleet := func() {
		r := fleet.Evaluate(context.Background(), sessions, req, cfg)
		if !r.OK {
			panic(fmt.Sprintf("fleet approx count failed: code=%d", r.Code))
		}
	}
	runFleet() // seal every session store once, off the clock

	// Disabled cache = the legacy behaviour: every session scan compiles
	// its own plan.
	propolyne.SharedCache.SetCapacity(-1)
	noCacheUS := timeLoop(runFleet)
	propolyne.SharedCache.SetCapacity(propolyne.DefaultPlanCacheCost)
	propolyne.SharedCache.Purge()
	runFleet() // warm: the one compile per geometry happens here
	sharedUS := timeLoop(runFleet)

	res.FleetNoCacheUS = noCacheUS / float64(res.Sessions)
	res.FleetSharedUS = sharedUS / float64(res.Sessions)
	res.FleetSpeedup = res.FleetNoCacheUS / res.FleetSharedUS

	tb.AddRow(fmt.Sprintf("fleet/%d sessions, per-session compile", res.Sessions),
		res.FleetNoCacheUS, "1.0×")
	tb.AddRow(fmt.Sprintf("fleet/%d sessions, shared plan", res.Sessions),
		res.FleetSharedUS, fmt.Sprintf("%.1f×", res.FleetSpeedup))
	tb.Note("plans depend only on engine geometry + query shape, so a fleet of one device")
	tb.Note("class shares a single compiled plan; the per-session cost left is the sparse")
	tb.Note("dot product ProPolyne promises (plus scatter dispatch)")
	tb.Render(w)
	return res
}
