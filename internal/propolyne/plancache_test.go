package propolyne

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"aims/internal/vec"
)

func cacheTestEngine(t *testing.T, sizes []int, tuples int) *Engine {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(tuples)))
	rel := randomRelation(rng, sizes, tuples)
	e, err := New(rel.Cube(), sizes, 1)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestPlanCacheHitReturnsSamePlan(t *testing.T) {
	e := cacheTestEngine(t, []int{32, 32}, 300)
	c := NewPlanCache(1 << 16)
	q := Query{Lo: []int{1, 2}, Hi: []int{20, 30}}
	p1, err := c.Lookup(e, q)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.Lookup(e, q)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("second lookup should return the cached plan pointer")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Plans != 1 {
		t.Fatalf("stats %+v, want 1 hit / 1 miss / 1 plan", st)
	}
	// A geometry-equal engine shares the plan — the fleet property.
	e2 := cacheTestEngine(t, []int{32, 32}, 500)
	if e.Fingerprint() != e2.Fingerprint() {
		t.Fatalf("fingerprints differ: %q vs %q", e.Fingerprint(), e2.Fingerprint())
	}
	p3, err := c.Lookup(e2, q)
	if err != nil {
		t.Fatal(err)
	}
	if p3 != p1 {
		t.Fatal("geometry-equal engine should share the cached plan")
	}
	// A geometry-different engine must not.
	e3 := cacheTestEngine(t, []int{32, 64}, 300)
	if e.Fingerprint() == e3.Fingerprint() {
		t.Fatal("different geometry, same fingerprint")
	}
}

func TestPlanCacheDistinctQueriesDistinctPlans(t *testing.T) {
	e := cacheTestEngine(t, []int{32, 32}, 300)
	c := NewPlanCache(1 << 16)
	q := Query{Lo: []int{0, 0}, Hi: []int{15, 15}}
	qPoly := Query{Lo: []int{0, 0}, Hi: []int{15, 15}, Polys: []vec.Poly{nil, {0, 1}}}
	p1, _ := c.Lookup(e, q)
	p2, _ := c.Lookup(e, qPoly)
	if p1 == p2 {
		t.Fatal("different polynomials must compile different plans")
	}
	if st := c.Stats(); st.Misses != 2 || st.Plans != 2 {
		t.Fatalf("stats %+v, want 2 misses / 2 plans", st)
	}
}

// TestPlanCacheEviction pins the LRU against one global budget: at a budget
// of 1 exactly the newest plan stays resident, a plan hit recently outlives
// an older untouched one, and every eviction is counted.
func TestPlanCacheEviction(t *testing.T) {
	e := cacheTestEngine(t, []int{32, 32}, 200)
	box := func(lo int) Query { return Query{Lo: []int{lo, 0}, Hi: []int{lo + 8, 31}} }
	lookup := func(c *PlanCache, q Query) *Plan {
		t.Helper()
		p, err := c.Lookup(e, q)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	resident := func(c *PlanCache, q Query) bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		_, ok := c.m[planKey(e, q)]
		return ok
	}

	tiny := NewPlanCache(1)
	const inserts = 10
	for lo := 0; lo < inserts; lo++ {
		lookup(tiny, box(lo))
	}
	if st := tiny.Stats(); st.Plans != 1 || st.Evictions != inserts-1 {
		t.Fatalf("budget 1 after %d inserts: %+v, want 1 plan and %d evictions", inserts, st, inserts-1)
	}
	if !resident(tiny, box(inserts-1)) {
		t.Fatal("the newest plan is not the one resident")
	}
	// Evicted plans recompile on demand.
	lookup(tiny, box(0))
	if st := tiny.Stats(); st.Misses != inserts+1 || st.Evictions != inserts {
		t.Fatalf("re-lookup of an evicted plan: %+v, want %d misses and %d evictions", st, inserts+1, inserts)
	}

	// Room for exactly two plans: touching the older one makes the newer
	// one the least recently used, so the third insert evicts it.
	c := NewPlanCache(1 << 16)
	old, young := lookup(c, box(0)), lookup(c, box(1))
	c.SetCapacity(planCost(old) + planCost(young))
	lookup(c, box(0))
	lookup(c, box(2))
	if st := c.Stats(); st.Evictions != 1 || st.Plans != 2 {
		t.Fatalf("stats %+v, want 1 eviction and 2 plans", st)
	}
	if !resident(c, box(0)) || resident(c, box(1)) || !resident(c, box(2)) {
		t.Fatal("LRU evicted the recently hit plan instead of the untouched one")
	}
}

func TestPlanCacheErrorNotCached(t *testing.T) {
	e := cacheTestEngine(t, []int{16, 16}, 100)
	c := NewPlanCache(1 << 10)
	bad := Query{Lo: []int{0, 0}, Hi: []int{99, 7}}
	for i := 0; i < 2; i++ {
		if _, err := c.Lookup(e, bad); err == nil {
			t.Fatal("invalid query accepted")
		}
	}
	if st := c.Stats(); st.Plans != 0 || st.Misses != 2 {
		t.Fatalf("failed compiles must not become residents: %+v", st)
	}
}

// TestPlanCacheSingleflight: concurrent misses on one key collapse into a
// single compilation.
func TestPlanCacheSingleflight(t *testing.T) {
	e := cacheTestEngine(t, []int{64, 64}, 500)
	c := NewPlanCache(1 << 16)
	q := Query{Lo: []int{3, 5}, Hi: []int{60, 50}, Polys: []vec.Poly{nil, {0, 1}}}
	const goroutines = 16
	var wg sync.WaitGroup
	start := make(chan struct{})
	plans := make([]*Plan, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			p, err := c.Lookup(e, q)
			if err != nil {
				t.Error(err)
				return
			}
			plans[g] = p
		}(g)
	}
	close(start)
	wg.Wait()
	st := c.Stats()
	if st.Misses != 1 {
		t.Fatalf("%d compilations for one key, want 1 (singleflight)", st.Misses)
	}
	if st.Hits != goroutines-1 {
		t.Fatalf("hits %d, want %d", st.Hits, goroutines-1)
	}
	for g := 1; g < goroutines; g++ {
		if plans[g] != plans[0] {
			t.Fatal("waiters must all receive the singleflighted plan")
		}
	}
}

// TestPlanCacheConcurrentWithAppends is the -race stress: readers keep
// evaluating cached plans while a writer appends batches into the engine.
// Plans are geometry-only, so appends never invalidate them; the test pins
// that the cache and the engine locks compose without races — including
// the budgeted estimate and the data energy the writer keeps current
// under the same lock hold as the coefficients.
func TestPlanCacheConcurrentWithAppends(t *testing.T) {
	e := cacheTestEngine(t, []int{32, 32}, 200)
	e.Energy() // computed once; from here the appends maintain it
	c := NewPlanCache(1 << 12)
	stop := make(chan struct{})
	var writers, readers sync.WaitGroup

	// Writer: keeps appending cell offsets (the seal-path mutation).
	writers.Add(1)
	go func() {
		defer writers.Done()
		rng := rand.New(rand.NewSource(99))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			batch := make([]uint32, 8)
			for j := range batch {
				batch[j] = uint32(rng.Intn(32 * 32))
			}
			if err := e.AppendOffsets(batch); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// Readers: mixed cached evaluation, including the ordered/progressive
	// path, against a rotating set of queries.
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 300; i++ {
				lo := rng.Intn(16)
				hi := lo + rng.Intn(32-lo)
				q := Query{Lo: []int{lo, 0}, Hi: []int{hi, 31}}
				p, err := c.Lookup(e, q)
				if err != nil {
					t.Error(err)
					return
				}
				_ = e.EvalPlan(p)
				if i%16 == 0 {
					_, _ = p.Ordered()
				}
				if _, bound, err := e.EstimateWithBudget(q, 8); err != nil || math.IsNaN(bound) {
					t.Errorf("EstimateWithBudget: bound %v, err %v", bound, err)
					return
				}
				if e.Energy() <= 0 {
					t.Error("Energy() not positive on a populated engine")
					return
				}
			}
		}(g)
	}
	readers.Wait()
	close(stop)
	writers.Wait()
	if got, want := e.Energy(), freshEnergy(e); math.Abs(got-want) > 1e-9*want {
		t.Fatalf("energy after concurrent appends %v, fresh sum %v", got, want)
	}
}

func TestPlanCacheTraceRidesInQuery(t *testing.T) {
	e := cacheTestEngine(t, []int{32, 32}, 300)
	c := NewPlanCache(1 << 16)
	var first, second PlanTrace
	lookup := func(pt *PlanTrace) *Plan {
		t.Helper()
		p, err := c.Lookup(e, Query{Lo: []int{1, 2}, Hi: []int{20, 30}, Trace: pt})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	p1, p2 := lookup(&first), lookup(&second)
	// The trace pointer is not part of the shape: one entry, one compile.
	if p1 != p2 {
		t.Fatal("lookups differing only in Trace compiled two plans")
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != 1 || st.Plans != 1 {
		t.Fatalf("stats %+v, want 1 miss / 1 hit / 1 plan", st)
	}
	if first.Hit || first.LookupNS <= 0 {
		t.Fatalf("first trace %+v, want a miss with its compile time", first)
	}
	if !second.Hit {
		t.Fatalf("second trace %+v, want a hit", second)
	}
	// Untraced lookups, hit and miss alike, write to no earlier trace: the
	// cached plan keeps no trace pointer.
	before1, before2 := first, second
	lookup(nil)
	c.Purge()
	lookup(nil)
	if first != before1 || second != before2 {
		t.Fatalf("untraced lookups wrote earlier traces: %+v %+v, were %+v %+v",
			first, second, before1, before2)
	}
}

func TestTracedEvaluationMatchesUntraced(t *testing.T) {
	e := cacheTestEngine(t, []int{32, 32}, 300)
	q := Query{Lo: []int{3, 0}, Hi: []int{27, 19}}
	traced := func() Query {
		tq := q
		tq.Trace = &PlanTrace{}
		return tq
	}

	wantSteps, _, err := e.Progressive(q, 8)
	if err != nil {
		t.Fatal(err)
	}
	pq := traced()
	gotSteps, _, err := e.Progressive(pq, 8)
	if err != nil {
		t.Fatal(err)
	}
	if pq.Trace.EvalNS <= 0 {
		t.Fatalf("Progressive trace %+v, want EvalNS > 0", *pq.Trace)
	}
	if len(gotSteps) != len(wantSteps) {
		t.Fatalf("traced Progressive: %d steps, untraced %d", len(gotSteps), len(wantSteps))
	}
	for i := range gotSteps {
		g, w := gotSteps[i], wantSteps[i]
		if g.Coefficients != w.Coefficients ||
			math.Float64bits(g.Estimate) != math.Float64bits(w.Estimate) ||
			math.Float64bits(g.ErrorBound) != math.Float64bits(w.ErrorBound) {
			t.Fatalf("step %d: traced %+v, untraced %+v", i, g, w)
		}
	}

	wantEst, wantBound, err := e.EstimateWithBudget(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	eq := traced()
	gotEst, gotBound, err := e.EstimateWithBudget(eq, 10)
	if err != nil {
		t.Fatal(err)
	}
	if eq.Trace.EvalNS <= 0 {
		t.Fatalf("EstimateWithBudget trace %+v, want EvalNS > 0", *eq.Trace)
	}
	if math.Float64bits(gotEst) != math.Float64bits(wantEst) ||
		math.Float64bits(gotBound) != math.Float64bits(wantBound) {
		t.Fatalf("traced estimate (%v, %v), untraced (%v, %v)", gotEst, gotBound, wantEst, wantBound)
	}
}
