package propolyne

import (
	"container/list"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// PlanCache is a bounded, concurrency-safe LRU cache of compiled query
// plans, keyed by engine geometry fingerprint (dims, bases, levels)
// plus query shape (box, polynomial coefficients). Because a plan depends
// only on geometry and query shape — never on coefficient data — appends,
// incremental seals and even full engine rebuilds with the same geometry
// all keep their cached plans valid; the cache needs eviction only to
// bound memory, never invalidation for correctness. That is also what
// makes fleet queries cheap: every session of a device class seals to the
// same geometry, so a 10k-session fleet scan compiles one plan and shares
// it across all scans.
//
// Concurrent misses on the same key collapse into a single compilation
// (per-entry singleflight): the first looker-up inserts a pending entry
// and compiles; the rest block on it and share the result. Eviction is LRU
// against a cost budget measured in resident entries.
type PlanCache struct {
	capacity  atomic.Int64
	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
	obs       atomic.Pointer[PlanObserver]

	mu   sync.Mutex // guards lru, m and cost
	lru  *list.List
	m    map[string]*list.Element
	cost int
}

// DefaultPlanCacheCost is the default cache budget in cost units (one unit
// ≈ one resident plan entry; see planCost). At 16 bytes an entry this
// bounds the cache near 16 MiB.
const DefaultPlanCacheCost = 1 << 20

// SharedCache is the process-wide plan cache every Engine query surface
// (Exact, Progressive, EstimateWithBudget, GroupBy*, QueryCoefficients)
// compiles through. Size it with SetCapacity (the server's -plan-cache
// flag).
var SharedCache = NewPlanCache(DefaultPlanCacheCost)

// PlanObserver carries the cache's metric hooks; nil funcs are skipped.
// The middle tier wires these onto its obs registry.
type PlanObserver struct {
	Hit            func()
	Miss           func()
	Evict          func()
	CompileSeconds func(s float64)
}

// planEntry is one cached (or in-flight) compilation. done closes when
// plan/err are set; resident tracks whether the entry still lives in the
// cache (an entry can be evicted while waiters hold it — they still get
// the result, it just isn't cached).
type planEntry struct {
	key      string
	plan     *Plan
	err      error
	cost     int
	done     chan struct{}
	resident bool
}

// NewPlanCache creates a cache with the given cost budget. The cache keeps
// at least its most recent plan, however small the budget.
func NewPlanCache(costCapacity int) *PlanCache {
	c := &PlanCache{lru: list.New(), m: map[string]*list.Element{}}
	c.capacity.Store(int64(costCapacity))
	return c
}

// SetCapacity adjusts the cost budget. Shrinking takes effect as inserts
// evict down to the new budget.
func (c *PlanCache) SetCapacity(costCapacity int) {
	c.capacity.Store(int64(costCapacity))
}

// SetObserver installs the metric hooks (replacing any previous set).
func (c *PlanCache) SetObserver(o PlanObserver) {
	c.obs.Store(&o)
}

// PlanCacheStats is a point-in-time snapshot of cache effectiveness.
type PlanCacheStats struct {
	Hits, Misses, Evictions uint64
	Plans                   int // resident compiled plans
	Cost                    int // resident cost units
}

// Stats snapshots the cache counters.
func (c *PlanCache) Stats() PlanCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return PlanCacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Plans:     c.lru.Len(),
		Cost:      c.cost,
	}
}

// Purge drops every cached plan (counters are kept). Mainly for
// benchmarks and tests that need a cold cache.
func (c *PlanCache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.lru.Front(); el != nil; el = el.Next() {
		el.Value.(*planEntry).resident = false
	}
	c.lru.Init()
	c.m = map[string]*list.Element{}
	c.cost = 0
}

// PlanTrace reports what one traced query evaluation cost at the plan
// layer: whether the plan came from cache, how long the lookup took — on a
// hit, rendering the key and probing the cache; on a miss, the compile —
// and how long evaluation ran (ordering, the coefficient dot product and
// the error bound). A caller asks for it by setting Query.Trace; the middle
// tier stamps the fields into trace spans without propolyne ever importing
// obs.
type PlanTrace struct {
	Hit      bool
	LookupNS int64
	EvalNS   int64
}

// Lookup returns the compiled plan for (engine geometry, query), compiling
// and caching it on a miss. Concurrent misses on one key compile once. A
// non-nil q.Trace records whether this call hit the cache and how long the
// hit's probe or the miss's compile took.
func (c *PlanCache) Lookup(e *Engine, q Query) (*Plan, error) {
	var t0 time.Time
	if q.Trace != nil {
		t0 = time.Now()
	}
	key := planKey(e, q)
	c.mu.Lock()
	if el, ok := c.m[key]; ok {
		c.lru.MoveToFront(el)
		en := el.Value.(*planEntry)
		c.mu.Unlock()
		c.hits.Add(1)
		if o := c.obs.Load(); o != nil && o.Hit != nil {
			o.Hit()
		}
		<-en.done
		if q.Trace != nil {
			q.Trace.Hit = true
			q.Trace.LookupNS = time.Since(t0).Nanoseconds()
		}
		return en.plan, en.err
	}
	en := &planEntry{key: key, done: make(chan struct{}), resident: true}
	el := c.lru.PushFront(en)
	c.m[key] = el
	c.mu.Unlock()

	plan, err := c.compile(e, q)
	en.plan, en.err = plan, err
	close(en.done)

	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		// Don't cache failures; later lookups revalidate.
		if en.resident {
			en.resident = false
			c.lru.Remove(el)
			delete(c.m, key)
		}
		return nil, err
	}
	if !en.resident {
		return plan, nil // evicted or purged while compiling
	}
	en.cost = planCost(plan)
	c.cost += en.cost
	budget := max(int(c.capacity.Load()), 1)
	for c.cost > budget {
		back := c.lru.Back()
		if back == el {
			break
		}
		old := back.Value.(*planEntry)
		old.resident = false
		c.lru.Remove(back)
		delete(c.m, old.key)
		c.cost -= old.cost
		c.evictions.Add(1)
		if o := c.obs.Load(); o != nil && o.Evict != nil {
			o.Evict()
		}
	}
	return plan, nil
}

// compile runs one timed compilation and accounts the miss; a non-nil
// q.Trace records the compile time for the caller's trace.
func (c *PlanCache) compile(e *Engine, q Query) (*Plan, error) {
	t0 := time.Now()
	p, err := e.CompilePlan(q)
	elapsed := time.Since(t0)
	if q.Trace != nil {
		q.Trace.Hit = false
		q.Trace.LookupNS = elapsed.Nanoseconds()
	}
	c.misses.Add(1)
	if o := c.obs.Load(); o != nil {
		if o.Miss != nil {
			o.Miss()
		}
		if err == nil && o.CompileSeconds != nil {
			o.CompileSeconds(elapsed.Seconds())
		}
	}
	return p, err
}

// planCost estimates a plan's resident memory in entry units: the
// per-dimension sorted entries (run spans are O(1)) plus — when the
// support is small enough that Ordered() will pin its materialisation —
// the tensor-product size. Every plan costs at least one unit.
func planCost(p *Plan) int {
	cost := 1
	for d := range p.terms {
		if !p.terms[d].run {
			cost += len(p.terms[d].entries)
		}
	}
	if p.stats.QueryCoeffs <= maxOrderedCache {
		cost += p.stats.QueryCoeffs
	}
	return cost
}

// plan compiles q through the shared cache — the internal entry point of
// every engine query surface.
func (e *Engine) plan(q Query) (*Plan, error) {
	return SharedCache.Lookup(e, q)
}

// Fingerprint identifies the engine's plan-relevant geometry: dimension
// sizes, per-dimension basis, and decomposition levels. Engines with equal
// fingerprints compile identical plans for any query, by construction —
// this is what lets a fleet of per-session engines share one plan.
func (e *Engine) Fingerprint() string {
	e.fpOnce.Do(func() {
		b := make([]byte, 0, 16*len(e.Dims))
		for d := range e.Dims {
			b = strconv.AppendInt(b, int64(e.Dims[d]), 10)
			b = append(b, ':')
			if e.Bases[d].Standard {
				b = append(b, "std"...)
			} else {
				b = append(b, e.Bases[d].Filter.Name...)
			}
			b = append(b, ':')
			b = strconv.AppendInt(b, int64(e.Levels[d]), 10)
			b = append(b, ';')
		}
		e.fp = string(b)
	})
	return e.fp
}

// planKey renders the cache key: engine fingerprint plus the query's box
// and exact polynomial coefficients (bit-patterns, so -0 ≠ 0 never aliases
// distinct plans). A key of up to 128 bytes is built on the stack, so
// rendering one allocates only the returned string.
func planKey(e *Engine, q Query) string {
	var buf [128]byte
	b := buf[:0]
	b = append(b, e.Fingerprint()...)
	b = append(b, '|')
	for d := range q.Lo {
		b = strconv.AppendInt(b, int64(q.Lo[d]), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(q.Hi[d]), 10)
		b = append(b, ';')
	}
	b = append(b, '|')
	for d, p := range q.Polys {
		if p == nil {
			continue
		}
		b = strconv.AppendInt(b, int64(d), 10)
		b = append(b, ':')
		for _, cf := range p {
			b = strconv.AppendUint(b, math.Float64bits(cf), 16)
			b = append(b, ',')
		}
		b = append(b, ';')
	}
	return string(b)
}
