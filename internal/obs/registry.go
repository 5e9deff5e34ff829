// Package obs is the observability substrate of the AIMS middle tier: a
// dependency-free registry of named, lock-free instruments (counters,
// gauges, fixed-bucket histograms, scrape-time callback instruments) with
// Prometheus text exposition, and a sampling pipeline tracer that records
// span timelines of batches and queries crossing the ingest and query
// stages into a bounded ring (tracer.go).
//
// Hot-path updates are single atomic operations; the registry mutex is
// taken only at registration and exposition time, so instruments are safe
// to hammer from thousands of session goroutines.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Registry holds named instruments and renders them in Prometheus text
// exposition format. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu   sync.Mutex
	inst []instrument
	byID map[string]instrument
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byID: map[string]instrument{}}
}

// meta is the identity of one instrument: its metric name, optional
// label pairs (`dir="in",type="batch"` — no braces), help text and
// exposition TYPE.
type meta struct {
	name   string
	labels string
	help   string
	typ    string
}

func (m *meta) id() string { return m.name + "{" + m.labels + "}" }

// series renders the sample-line prefix: name plus the label set, with
// extra merged in (used for histogram le labels).
func (m *meta) series(extra string) string {
	l := m.labels
	if extra != "" {
		if l != "" {
			l += ","
		}
		l += extra
	}
	if l == "" {
		return m.name
	}
	return m.name + "{" + l + "}"
}

type instrument interface {
	metaRef() *meta
	expose(w io.Writer)
}

// register adds inst, or returns the already-registered instrument of the
// same (name, labels) identity. Re-registering an identity as a different
// instrument kind panics: that is a programming error, not load-time
// input.
func (r *Registry) register(inst instrument) instrument {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := inst.metaRef().id()
	if prev, ok := r.byID[id]; ok {
		if fmt.Sprintf("%T", prev) != fmt.Sprintf("%T", inst) {
			panic(fmt.Sprintf("obs: %s re-registered as a different kind", id))
		}
		return prev
	}
	r.byID[id] = inst
	r.inst = append(r.inst, inst)
	return inst
}

// Counter is a monotonically increasing uint64.
type Counter struct {
	m meta
	v atomic.Uint64
}

// Counter registers (or returns the existing) unlabelled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.CounterWith(name, "", help)
}

// CounterWith registers a counter with a fixed label set, e.g.
// `dir="in",type="batch"`.
func (r *Registry) CounterWith(name, labels, help string) *Counter {
	c := &Counter{m: meta{name: name, labels: labels, help: help, typ: "counter"}}
	return r.register(c).(*Counter)
}

// Inc adds 1; on a nil counter it does nothing.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n; on a nil counter it does nothing.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) metaRef() *meta { return &c.m }
func (c *Counter) expose(w io.Writer) {
	fmt.Fprintf(w, "%s %s\n", c.m.series(""), strconv.FormatUint(c.v.Load(), 10))
}

// Gauge is a settable signed value.
type Gauge struct {
	m meta
	v atomic.Int64
}

// Gauge registers (or returns the existing) unlabelled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.GaugeWith(name, "", help)
}

// GaugeWith registers a gauge with a fixed label set.
func (r *Registry) GaugeWith(name, labels, help string) *Gauge {
	g := &Gauge{m: meta{name: name, labels: labels, help: help, typ: "gauge"}}
	return r.register(g).(*Gauge)
}

// Add moves the gauge by delta (negative to decrement).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) metaRef() *meta { return &g.m }
func (g *Gauge) expose(w io.Writer) {
	fmt.Fprintf(w, "%s %s\n", g.m.series(""), strconv.FormatInt(g.v.Load(), 10))
}

// atomicFloat is a lock-free float64 accumulator (CAS on the bit pattern).
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }

// Histogram is a fixed-bucket histogram: Observe is one atomic increment
// plus one CAS on the sum. Bucket b counts observations v <= Bounds[b];
// the final implicit bucket is unbounded, so the per-bucket count slice is
// always len(Bounds)+1 — derived, never hard-coded.
type Histogram struct {
	m      meta
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1, the tail bucket is +Inf
	n      atomic.Uint64
	sum    atomicFloat
	// exemplars holds the latest traced observation per bucket (OpenMetrics
	// exemplars), published as immutable snapshots so exposition never tears.
	exemplars []atomic.Pointer[exemplar]
}

// exemplar links one observed value to the trace that produced it.
type exemplar struct {
	value   float64
	traceID uint64
}

// Histogram registers (or returns the existing) unlabelled histogram with
// the given ascending bucket upper bounds.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	return r.HistogramWith(name, "", help, bounds)
}

// HistogramWith registers a histogram with a fixed label set.
func (r *Registry) HistogramWith(name, labels, help string, bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %s bounds not ascending at %d", name, i))
		}
	}
	h := &Histogram{
		m:         meta{name: name, labels: labels, help: help, typ: "histogram"},
		bounds:    append([]float64(nil), bounds...),
		counts:    make([]atomic.Uint64, len(bounds)+1),
		exemplars: make([]atomic.Pointer[exemplar], len(bounds)+1),
	}
	return r.register(h).(*Histogram)
}

// Observe records one value; on a nil histogram it does nothing.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.counts[h.bucketOf(v)].Add(1)
	h.n.Add(1)
	h.sum.Add(v)
}

// ObserveExemplar records one value and, when traceID is non-zero, pins it
// as the bucket's exemplar so the exposition links the bucket to the trace
// that landed there (a bad p99 bucket points at a captured trace). On a
// nil histogram it does nothing.
func (h *Histogram) ObserveExemplar(v float64, traceID uint64) {
	if h == nil {
		return
	}
	i := h.bucketOf(v)
	h.counts[i].Add(1)
	h.n.Add(1)
	h.sum.Add(v)
	if traceID != 0 {
		h.exemplars[i].Store(&exemplar{value: v, traceID: traceID})
	}
}

func (h *Histogram) bucketOf(v float64) int {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	return i
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.n.Load() }

// Sum returns the running sum of observed values.
func (h *Histogram) Sum() float64 { return h.sum.Load() }

// BucketCounts returns a copy of the per-bucket (non-cumulative) counts,
// one per bound plus the unbounded tail.
func (h *Histogram) BucketCounts() []uint64 {
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

func (h *Histogram) metaRef() *meta { return &h.m }
func (h *Histogram) expose(w io.Writer) {
	cum := uint64(0)
	for i := range h.counts {
		cum += h.counts[i].Load()
		le := "+Inf"
		if i < len(h.bounds) {
			le = formatFloat(h.bounds[i])
		}
		// OpenMetrics-style exemplar suffix: the latest traced observation
		// that landed in this bucket, keyed by trace ID.
		ex := ""
		if ep := h.exemplars[i].Load(); ep != nil {
			ex = fmt.Sprintf(" # {trace_id=\"%s\"} %s", TraceIDString(ep.traceID), formatFloat(ep.value))
		}
		fmt.Fprintf(w, "%s_bucket%s %d%s\n",
			h.m.name, labelSuffix(h.m.labels, `le="`+le+`"`), cum, ex)
	}
	suffix := ""
	if h.m.labels != "" {
		suffix = "{" + h.m.labels + "}"
	}
	fmt.Fprintf(w, "%s_sum%s %s\n", h.m.name, suffix, formatFloat(h.sum.Load()))
	fmt.Fprintf(w, "%s_count%s %d\n", h.m.name, suffix, h.n.Load())
}

// labelSuffix renders {labels,extra} merging the fixed label set with one
// extra pair.
func labelSuffix(labels, extra string) string {
	l := labels
	if l != "" {
		l += ","
	}
	return "{" + l + extra + "}"
}

// Func is a scrape-time callback instrument: the function is evaluated at
// exposition, for values maintained elsewhere (e.g. package-level
// transform statistics).
type Func struct {
	m  meta
	fn func() float64
}

// GaugeFunc registers a callback gauge.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) *Func {
	f := &Func{m: meta{name: name, help: help, typ: "gauge"}, fn: fn}
	return r.register(f).(*Func)
}

// CounterFunc registers a callback counter (the function must be
// monotonic for the exposition TYPE to be truthful).
func (r *Registry) CounterFunc(name, help string, fn func() float64) *Func {
	f := &Func{m: meta{name: name, help: help, typ: "counter"}, fn: fn}
	return r.register(f).(*Func)
}

func (f *Func) metaRef() *meta { return &f.m }
func (f *Func) expose(w io.Writer) {
	fmt.Fprintf(w, "%s %s\n", f.m.series(""), formatFloat(f.fn()))
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every registered instrument in Prometheus text
// exposition format, sorted by metric name then label set, with one
// HELP/TYPE header per metric name.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	inst := append([]instrument(nil), r.inst...)
	r.mu.Unlock()
	sort.SliceStable(inst, func(i, j int) bool {
		a, b := inst[i].metaRef(), inst[j].metaRef()
		if a.name != b.name {
			return a.name < b.name
		}
		return a.labels < b.labels
	})
	prev := ""
	for _, in := range inst {
		m := in.metaRef()
		if m.name != prev {
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", m.name, m.help, m.name, m.typ)
			prev = m.name
		}
		in.expose(w)
	}
}
