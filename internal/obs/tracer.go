package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultTraceSample is the default sampling period: one in every N
// pipeline entries (batches, queries) is traced, keeping tracing overhead
// unmeasurable on the hot path.
const DefaultTraceSample = 256

// DefaultTraceBuffer is the default completed-trace ring capacity.
const DefaultTraceBuffer = 128

// DefaultSlowBuffer is the slow-trace ring capacity: traces exceeding the
// slow threshold are force-retained here regardless of sampling.
const DefaultSlowBuffer = 64

// DefaultSlowQuery is the default slow-trace threshold (the server's
// -slow-query flag): any trace whose total wall time meets it is retained
// with 100% probability, independent of the 1/N sampler.
const DefaultSlowQuery = 100 * time.Millisecond

// SpanID identifies one span within a trace; 0 is the trace root (a span
// with parent 0 is a top-level stage).
type SpanID int32

// Tracer records pipeline traces into two bounded rings: a sampled ring
// (one in every N entries, plus any wire-force-sampled request) and a slow
// ring holding every trace that exceeded the slow threshold. A nil *Tracer
// is the compiled-out no-op: Begin/BeginAt return nil and every *Trace
// method is nil-safe, so instrumented code needs no branches beyond the
// ones it already has.
type Tracer struct {
	every uint64
	tick  atomic.Uint64
	seq   atomic.Uint64
	seed  uint64

	// slowNS is the slow-trace threshold in nanoseconds; <= 0 disables the
	// slow ring. onSlow fires once per retained slow trace (metric hook).
	slowNS atomic.Int64
	onSlow atomic.Pointer[func(kind string)]

	mu   sync.Mutex
	ring []*Trace // completed sampled traces, overwritten oldest-first
	pos  int

	slowMu   sync.Mutex
	slowRing []*Trace // completed slow traces, overwritten oldest-first
	slowPos  int
}

// NewTracer creates a tracer sampling one in sampleEvery pipeline entries
// (<= 0 uses DefaultTraceSample) into a ring of bufferSize completed
// traces (<= 0 uses DefaultTraceBuffer). The slow ring starts disabled;
// arm it with SetSlowThreshold.
func NewTracer(sampleEvery, bufferSize int) *Tracer {
	if sampleEvery <= 0 {
		sampleEvery = DefaultTraceSample
	}
	if bufferSize <= 0 {
		bufferSize = DefaultTraceBuffer
	}
	return &Tracer{
		every:    uint64(sampleEvery),
		seed:     uint64(time.Now().UnixNano()),
		ring:     make([]*Trace, 0, bufferSize),
		slowRing: make([]*Trace, 0, DefaultSlowBuffer),
	}
}

// SampleEvery returns the sampling period (0 for a nil tracer).
func (t *Tracer) SampleEvery() int {
	if t == nil {
		return 0
	}
	return int(t.every)
}

// Capacity returns the sampled ring's capacity (0 for a nil tracer); the
// admin plane clamps /tracez?n= to it. The capacity is fixed at
// construction, but the slice header itself moves under Finish's appends,
// so the read takes the ring lock.
func (t *Tracer) Capacity() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return cap(t.ring)
}

// SetSlowThreshold arms (or, with d <= 0, disarms) the slow ring: any
// trace whose total duration reaches d is retained there at Finish,
// regardless of sampling.
func (t *Tracer) SetSlowThreshold(d time.Duration) {
	if t == nil {
		return
	}
	t.slowNS.Store(d.Nanoseconds())
}

// SlowThreshold returns the current slow-trace threshold (0 when the slow
// ring is disarmed or the tracer is nil).
func (t *Tracer) SlowThreshold() time.Duration {
	if t == nil {
		return 0
	}
	ns := t.slowNS.Load()
	if ns <= 0 {
		return 0
	}
	return time.Duration(ns)
}

// SetOnSlow installs the slow-trace hook, fired once per trace retained
// into the slow ring (the server counts these per kind).
func (t *Tracer) SetOnSlow(fn func(kind string)) {
	if t == nil {
		return
	}
	t.onSlow.Store(&fn)
}

// tickSample advances the 1/N sampler and reports whether this entry is
// the sampled one of the current period.
func (t *Tracer) tickSample() bool {
	return t.every <= 1 || t.tick.Add(1)%t.every == 1
}

// genID derives a process-unique, well-mixed trace ID (splitmix64 over a
// boot-time seed plus a sequence counter). Never returns 0.
func (t *Tracer) genID() uint64 {
	x := t.seed + t.seq.Add(1)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}

// Begin starts a trace for one pipeline entry, honouring wire-propagated
// trace context: traceID (0 = generate one) and forceSample (the client's
// -trace flag) mark the trace for the sampled ring regardless of the 1/N
// sampler. Begin also returns a live trace for *unsampled* entries
// whenever the slow ring is armed, so a slow outlier is captured
// with 100% probability; when neither sampling nor the slow threshold
// wants the entry, it returns nil and the hot path stays allocation-free.
func (t *Tracer) Begin(kind string, traceID uint64, forceSample bool, start time.Time) *Trace {
	if t == nil {
		return nil
	}
	sampled := t.tickSample() || forceSample
	if !sampled && t.slowNS.Load() <= 0 {
		return nil
	}
	if traceID == 0 {
		traceID = t.genID()
	}
	return newTrace(t, traceID, kind, sampled, start)
}

// TickSample advances the 1/N sampler and reports whether this entry
// should trace live: the sampler picked it or the wire forced it (the
// client's -trace flag). Callers pairing this with BeginAt get the same
// behaviour as Begin for sampled entries while keeping unsampled ones
// allocation-free.
func (t *Tracer) TickSample(force bool) bool {
	if t == nil {
		return false
	}
	return t.tickSample() || force
}

// BeginAt returns a live trace unconditionally, without consulting the
// sampler: the caller has already decided this entry traces (TickSample
// said so) or is materialising a slow trace after the fact (sampled=false,
// so Finish publishes it only to the slow ring). traceID 0 generates one.
func (t *Tracer) BeginAt(kind string, traceID uint64, sampled bool, start time.Time) *Trace {
	if t == nil {
		return nil
	}
	if traceID == 0 {
		traceID = t.genID()
	}
	return newTrace(t, traceID, kind, sampled, start)
}

// SlowExceeded reports whether d crosses the armed slow threshold (false
// when disarmed or on a nil tracer).
func (t *Tracer) SlowExceeded(d time.Duration) bool {
	if t == nil {
		return false
	}
	th := t.slowNS.Load()
	return th > 0 && d.Nanoseconds() >= th
}

// Trace is one pipeline entry's span tree. All methods are nil-safe so
// unsampled paths pay only the nil check, and every mutation is a no-op
// once Finish has sealed the trace — a late stamp from a straggling
// goroutine can never mutate a published trace.
type Trace struct {
	tracer  *Tracer
	id      uint64
	kind    string
	sampled bool
	start   time.Time

	mu    sync.Mutex
	spans []Span
	attrs []attr
	total time.Duration
	done  bool

	// Inline backing arrays for spans/attrs: a typical query trace stamps
	// 6–8 spans and a handful of attributes, and with the slow ring armed
	// EVERY entry carries a live trace, so the always-on path must stay one
	// allocation (the Trace itself). Longer traces spill to the heap
	// normally.
	spanArr [8]Span
	attrArr [6]attr
}

// newTrace allocates a trace with its span/attr storage pointed at the
// inline arrays.
func newTrace(t *Tracer, id uint64, kind string, sampled bool, start time.Time) *Trace {
	tr := &Trace{tracer: t, id: id, kind: kind, sampled: sampled, start: start}
	tr.spans = tr.spanArr[:0]
	tr.attrs = tr.attrArr[:0]
	return tr
}

// attr is one key/value annotation on a trace (session, class, plan-cache
// outcome, byte counts — the structured fields of a slow-query record).
type attr struct{ k, v string }

// Span is one stage within a trace. Parent links spans into a tree: 0 is
// the trace root, anything else the ID of an enclosing span (IDs are
// assigned at StartSpan/AddSpan time, so parents exist before children).
// DurationNS is -1 while a started span is still open.
type Span struct {
	ID         SpanID `json:"id"`
	Parent     SpanID `json:"parent,omitempty"`
	Name       string `json:"name"`
	OffsetNS   int64  `json:"offset_ns"`
	DurationNS int64  `json:"duration_ns"`
}

// TraceID returns the trace's wire-propagated identity (0 on nil).
func (tr *Trace) TraceID() uint64 {
	if tr == nil {
		return 0
	}
	return tr.id
}

// Sampled reports whether the trace is destined for the sampled ring
// (false on nil).
func (tr *Trace) Sampled() bool {
	if tr == nil {
		return false
	}
	return tr.sampled
}

// addSpanLocked appends a span and returns its ID. Caller holds tr.mu and
// has checked tr.done.
func (tr *Trace) addSpanLocked(parent SpanID, name string, offsetNS, durationNS int64) SpanID {
	id := SpanID(len(tr.spans) + 1)
	tr.spans = append(tr.spans, Span{
		ID: id, Parent: parent, Name: name,
		OffsetNS: offsetNS, DurationNS: durationNS,
	})
	return id
}

// StartSpan opens a span under parent (0 = trace root) and returns its ID
// for EndSpan and for attaching children — possibly from other goroutines.
// Returns 0 on a nil or finished trace; 0 is safe to pass everywhere.
func (tr *Trace) StartSpan(parent SpanID, name string) SpanID {
	if tr == nil {
		return 0
	}
	now := time.Now()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.done {
		return 0
	}
	return tr.addSpanLocked(parent, name, now.Sub(tr.start).Nanoseconds(), -1)
}

// EndSpan closes a span opened by StartSpan. No-op for id 0, nil or
// finished traces.
func (tr *Trace) EndSpan(id SpanID) {
	if tr == nil || id <= 0 {
		return
	}
	now := time.Now()
	tr.mu.Lock()
	if !tr.done && int(id) <= len(tr.spans) {
		sp := &tr.spans[id-1]
		if sp.DurationNS < 0 {
			sp.DurationNS = now.Sub(tr.start).Nanoseconds() - sp.OffsetNS
		}
	}
	tr.mu.Unlock()
}

// AddSpan records a completed stage [start, end] under parent (0 = trace
// root) and returns its ID, or 0 on a nil/finished trace.
func (tr *Trace) AddSpan(parent SpanID, name string, start, end time.Time) SpanID {
	if tr == nil {
		return 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.done {
		return 0
	}
	return tr.addSpanLocked(parent, name,
		start.Sub(tr.start).Nanoseconds(), end.Sub(start).Nanoseconds())
}

// Span records a completed root-level stage [start, end].
func (tr *Trace) Span(name string, start, end time.Time) {
	tr.AddSpan(0, name, start, end)
}

// Annotate records an instantaneous root-level event at now.
func (tr *Trace) Annotate(name string) {
	if tr == nil {
		return
	}
	now := time.Now()
	tr.AddSpan(0, name, now, now)
}

// SetAttr attaches (or overwrites) a key/value annotation.
func (tr *Trace) SetAttr(key, value string) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	if !tr.done {
		for i := range tr.attrs {
			if tr.attrs[i].k == key {
				tr.attrs[i].v = value
				tr.mu.Unlock()
				return
			}
		}
		tr.attrs = append(tr.attrs, attr{k: key, v: value})
	}
	tr.mu.Unlock()
}

// Finish seals the trace and publishes it: to the sampled ring if the
// trace is sampled, and to the slow ring (firing the slow hook) if its
// total duration reached the armed threshold. Open spans are clamped to
// the trace end. Calling Finish more than once is a no-op, and every later
// Span/Annotate/SetAttr/StartSpan call is too.
func (tr *Trace) Finish() {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	if tr.done {
		tr.mu.Unlock()
		return
	}
	tr.done = true
	tr.total = time.Since(tr.start)
	totalNS := tr.total.Nanoseconds()
	for i := range tr.spans {
		if tr.spans[i].DurationNS < 0 {
			tr.spans[i].DurationNS = totalNS - tr.spans[i].OffsetNS
		}
	}
	tr.mu.Unlock()

	t := tr.tracer
	if tr.sampled {
		t.mu.Lock()
		if len(t.ring) < cap(t.ring) {
			t.ring = append(t.ring, tr)
		} else {
			t.ring[t.pos] = tr
			t.pos = (t.pos + 1) % cap(t.ring)
		}
		t.mu.Unlock()
	}
	if th := t.slowNS.Load(); th > 0 && totalNS >= th {
		t.slowMu.Lock()
		if len(t.slowRing) < cap(t.slowRing) {
			t.slowRing = append(t.slowRing, tr)
		} else {
			t.slowRing[t.slowPos] = tr
			t.slowPos = (t.slowPos + 1) % cap(t.slowRing)
		}
		t.slowMu.Unlock()
		if fn := t.onSlow.Load(); fn != nil && *fn != nil {
			(*fn)(tr.kind)
		}
	}
}

// TraceSnapshot is the JSON form of a completed trace (what /tracez
// serves). ID is the numeric trace ID; TraceID its zero-padded hex form,
// the spelling exemplars and clients use.
type TraceSnapshot struct {
	ID      uint64            `json:"id"`
	TraceID string            `json:"trace_id"`
	Kind    string            `json:"kind"`
	Sampled bool              `json:"sampled"`
	Start   time.Time         `json:"start"`
	TotalNS int64             `json:"total_ns"`
	Attrs   map[string]string `json:"attrs,omitempty"`
	Spans   []Span            `json:"spans"`
}

// TraceIDString renders a trace ID the way snapshots and exemplars spell
// it: 16 lower-case hex digits.
func TraceIDString(id uint64) string {
	const hexDigits = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = hexDigits[id&0xf]
		id >>= 4
	}
	return string(b[:])
}

// snapshot renders the trace; safe on completed and in-flight traces.
func (tr *Trace) snapshot() TraceSnapshot {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	s := TraceSnapshot{
		ID:      tr.id,
		TraceID: TraceIDString(tr.id),
		Kind:    tr.kind,
		Sampled: tr.sampled,
		Start:   tr.start,
		TotalNS: tr.total.Nanoseconds(),
		Spans:   append([]Span(nil), tr.spans...),
	}
	if len(tr.attrs) > 0 {
		s.Attrs = make(map[string]string, len(tr.attrs))
		for _, a := range tr.attrs {
			s.Attrs[a.k] = a.v
		}
	}
	return s
}

// Slowest returns up to n completed sampled traces ordered by total
// duration, slowest first.
func (t *Tracer) Slowest(n int) []TraceSnapshot {
	if t == nil || n <= 0 {
		return nil
	}
	t.mu.Lock()
	all := append([]*Trace(nil), t.ring...)
	t.mu.Unlock()
	out := make([]TraceSnapshot, 0, len(all))
	for _, tr := range all {
		out = append(out, tr.snapshot())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TotalNS > out[j].TotalNS })
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// FindByID returns the completed trace with the given ID from either ring
// (the sampled ring is checked first). The rings are small, so a linear
// scan serves the admin plane fine.
func (t *Tracer) FindByID(id uint64) (TraceSnapshot, bool) {
	if t == nil || id == 0 {
		return TraceSnapshot{}, false
	}
	t.mu.Lock()
	sampled := append([]*Trace(nil), t.ring...)
	t.mu.Unlock()
	for _, tr := range sampled {
		if tr.id == id {
			return tr.snapshot(), true
		}
	}
	t.slowMu.Lock()
	slow := append([]*Trace(nil), t.slowRing...)
	t.slowMu.Unlock()
	for _, tr := range slow {
		if tr.id == id {
			return tr.snapshot(), true
		}
	}
	return TraceSnapshot{}, false
}

// SlowRecord is the structured form of one slow-trace retention (what
// /slowlog serves): identity, shape attributes, and the per-stage
// breakdown derived from the trace's root-level spans.
type SlowRecord struct {
	TraceID string            `json:"trace_id"`
	Kind    string            `json:"kind"`
	Start   time.Time         `json:"start"`
	TotalNS int64             `json:"total_ns"`
	Attrs   map[string]string `json:"attrs,omitempty"`
	StageNS map[string]int64  `json:"stage_ns,omitempty"`
}

// SlowLog returns up to n slow-trace records, most recent first.
func (t *Tracer) SlowLog(n int) []SlowRecord {
	if t == nil || n <= 0 {
		return nil
	}
	t.slowMu.Lock()
	all := make([]*Trace, 0, len(t.slowRing))
	// Oldest-first ring order: entries [pos..] then [..pos) when full.
	for i := 0; i < len(t.slowRing); i++ {
		all = append(all, t.slowRing[(t.slowPos+i)%len(t.slowRing)])
	}
	t.slowMu.Unlock()
	if len(all) > n {
		all = all[len(all)-n:]
	}
	out := make([]SlowRecord, 0, len(all))
	for i := len(all) - 1; i >= 0; i-- {
		s := all[i].snapshot()
		rec := SlowRecord{
			TraceID: s.TraceID,
			Kind:    s.Kind,
			Start:   s.Start,
			TotalNS: s.TotalNS,
			Attrs:   s.Attrs,
		}
		if len(s.Spans) > 0 {
			rec.StageNS = make(map[string]int64)
			for _, sp := range s.Spans {
				if sp.Parent == 0 {
					rec.StageNS[sp.Name] += sp.DurationNS
				}
			}
		}
		out = append(out, rec)
	}
	return out
}

// SlowCount reports how many slow traces are currently retained.
func (t *Tracer) SlowCount() int {
	if t == nil {
		return 0
	}
	t.slowMu.Lock()
	defer t.slowMu.Unlock()
	return len(t.slowRing)
}
