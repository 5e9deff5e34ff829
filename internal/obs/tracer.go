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
// slow threshold are retained here regardless of sampling.
const DefaultSlowBuffer = 64

// DefaultSlowQuery is the default slow-trace threshold (the server's
// -slow-query flag): any entry whose wall time meets it is retained with
// 100% probability, independent of the 1/N sampler.
const DefaultSlowQuery = 100 * time.Millisecond

// SpanID identifies one span within a trace; 0 is the trace root (a span
// with parent 0 is a top-level stage).
type SpanID int32

// Tracer records pipeline traces into two bounded rings: a sampled ring
// (one in every N entries, plus any wire-force-sampled request) and a slow
// ring holding every trace that reached the slow threshold. A trace exists
// only if it will be kept, and there are two ways to get one: Begin, before
// the work, for an entry the sampler picks or the wire forces; and Late,
// after the work, for an entry that turned out slow. Everything else runs
// untraced — a nil *Trace, whose methods are all no-ops — and allocates
// nothing.
type Tracer struct {
	every  uint64
	tick   atomic.Uint64
	seq    atomic.Uint64
	seed   uint64
	slow   time.Duration     // the slow threshold
	onSlow func(kind string) // fired once per retained slow trace; may be nil

	mu   sync.Mutex
	ring []*Trace // completed sampled traces, overwritten oldest-first
	pos  int

	slowMu   sync.Mutex
	slowRing []*Trace // completed slow traces, overwritten oldest-first
	slowPos  int
}

// NewTracer creates a tracer sampling one in sampleEvery pipeline entries
// (<= 0 uses DefaultTraceSample) into a ring of bufferSize completed
// traces (<= 0 uses DefaultTraceBuffer), and retaining every trace that
// reaches slow (<= 0 uses DefaultSlowQuery) in the slow ring, calling
// onSlow (if non-nil) once for each.
func NewTracer(sampleEvery, bufferSize int, slow time.Duration, onSlow func(kind string)) *Tracer {
	if sampleEvery <= 0 {
		sampleEvery = DefaultTraceSample
	}
	if bufferSize <= 0 {
		bufferSize = DefaultTraceBuffer
	}
	if slow <= 0 {
		slow = DefaultSlowQuery
	}
	return &Tracer{
		every:    uint64(sampleEvery),
		seed:     uint64(time.Now().UnixNano()),
		slow:     slow,
		onSlow:   onSlow,
		ring:     make([]*Trace, 0, bufferSize),
		slowRing: make([]*Trace, 0, DefaultSlowBuffer),
	}
}

// SampleEvery returns the sampling period.
func (t *Tracer) SampleEvery() int { return int(t.every) }

// SlowThreshold returns the slow-trace threshold.
func (t *Tracer) SlowThreshold() time.Duration { return t.slow }

// Capacity returns the sampled ring's capacity; the admin plane clamps
// /tracez?n= to it. The capacity is fixed at construction, but the slice
// header itself moves under Finish's appends, so the read takes the ring
// lock.
func (t *Tracer) Capacity() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return cap(t.ring)
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

// Begin starts a live trace for one pipeline entry when the 1/N sampler
// picks it or forceSample (the client's -trace flag, carried on the wire)
// demands it, and returns nil otherwise — with no allocation. traceID is
// the wire-propagated identity (0 = generate one). A Begin trace is
// published to the sampled ring, and to the slow ring too if it was slow.
func (t *Tracer) Begin(kind string, traceID uint64, forceSample bool, start time.Time) *Trace {
	if picked := t.every <= 1 || t.tick.Add(1)%t.every == 1; !picked && !forceSample {
		return nil
	}
	return t.newTrace(kind, traceID, true, start)
}

// Late is the after-the-fact way in, for an entry Begin passed over: it
// returns an unsampled trace starting at start when end−start reached the
// slow threshold, and nil — with no allocation — when it did not. The
// caller stamps the stages it timed itself; Finish publishes the trace to
// the slow ring only.
func (t *Tracer) Late(kind string, traceID uint64, start, end time.Time) *Trace {
	if end.Sub(start) < t.slow {
		return nil
	}
	return t.newTrace(kind, traceID, false, start)
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
	// 6–8 spans and a handful of attributes, so a trace stays one
	// allocation (the Trace itself). Longer traces spill to the heap
	// normally.
	spanArr [8]Span
	attrArr [6]attr
}

// newTrace allocates a trace (traceID 0 generates an ID) with its
// span/attr storage pointed at the inline arrays.
func (t *Tracer) newTrace(kind string, traceID uint64, sampled bool, start time.Time) *Trace {
	if traceID == 0 {
		traceID = t.genID()
	}
	tr := &Trace{tracer: t, id: traceID, kind: kind, sampled: sampled, start: start}
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
// total duration reached the slow threshold. Open spans are clamped to
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
	if tr.total >= t.slow {
		t.slowMu.Lock()
		if len(t.slowRing) < cap(t.slowRing) {
			t.slowRing = append(t.slowRing, tr)
		} else {
			t.slowRing[t.slowPos] = tr
			t.slowPos = (t.slowPos + 1) % cap(t.slowRing)
		}
		t.slowMu.Unlock()
		if t.onSlow != nil {
			t.onSlow(tr.kind)
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
	if n <= 0 {
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
	if id == 0 {
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
	if n <= 0 {
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
	t.slowMu.Lock()
	defer t.slowMu.Unlock()
	return len(t.slowRing)
}
