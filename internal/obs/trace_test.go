package obs

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceSpanTree(t *testing.T) {
	tr := NewTracer(1, 4, 0, nil)
	x := tr.Begin("fleet-query", 0, false, time.Now())
	if x == nil {
		t.Fatal("1/1 Begin returned nil")
	}
	if x.TraceID() == 0 {
		t.Fatal("Begin did not assign a trace ID")
	}
	ev := x.StartSpan(0, "evaluate")
	if ev == 0 {
		t.Fatal("StartSpan returned 0 on a live trace")
	}
	s1 := x.StartSpan(ev, "session-1")
	x.AddSpan(s1, "queue-wait", time.Now(), time.Now().Add(time.Microsecond))
	x.EndSpan(s1)
	x.EndSpan(ev)
	x.SetAttr("kind", "approx_count")
	x.Finish()

	snap, ok := tr.FindByID(x.TraceID())
	if !ok {
		t.Fatal("FindByID missed a sampled trace")
	}
	if len(snap.Spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(snap.Spans))
	}
	byName := map[string]Span{}
	for _, sp := range snap.Spans {
		byName[sp.Name] = sp
	}
	if byName["evaluate"].Parent != 0 {
		t.Fatalf("evaluate parent = %d, want root", byName["evaluate"].Parent)
	}
	if byName["session-1"].Parent != byName["evaluate"].ID {
		t.Fatal("session-1 not parented under evaluate")
	}
	if byName["queue-wait"].Parent != byName["session-1"].ID {
		t.Fatal("queue-wait not parented under session-1")
	}
	for _, sp := range snap.Spans {
		if sp.DurationNS < 0 {
			t.Fatalf("span %s left unfinished after Finish: %d", sp.Name, sp.DurationNS)
		}
	}
	if snap.Attrs["kind"] != "approx_count" {
		t.Fatalf("attrs = %v", snap.Attrs)
	}
}

func TestTraceSealedAfterFinish(t *testing.T) {
	tr := NewTracer(1, 4, 0, nil)
	x := tr.Begin("query", 0, false, time.Now())
	x.Span("decode", time.Now(), time.Now())
	open := x.StartSpan(0, "evaluate")
	x.Finish()

	// Every post-Finish mutation must be a no-op: the trace is published.
	x.Span("late", time.Now(), time.Now().Add(time.Hour))
	x.Annotate("late-note")
	x.SetAttr("late", "yes")
	if id := x.StartSpan(0, "late-span"); id != 0 {
		t.Fatalf("StartSpan after Finish returned %d, want 0", id)
	}
	if id := x.AddSpan(0, "late-add", time.Now(), time.Now()); id != 0 {
		t.Fatalf("AddSpan after Finish returned %d, want 0", id)
	}
	x.EndSpan(open) // must not resurrect or panic

	snap, ok := tr.FindByID(x.TraceID())
	if !ok {
		t.Fatal("trace not published")
	}
	if len(snap.Spans) != 2 {
		t.Fatalf("sealed trace has %d spans, want 2", len(snap.Spans))
	}
	if len(snap.Attrs) != 0 {
		t.Fatalf("sealed trace grew attrs: %v", snap.Attrs)
	}
	for _, sp := range snap.Spans {
		if sp.OffsetNS+sp.DurationNS > snap.TotalNS {
			t.Fatalf("span %s extends past sealed total", sp.Name)
		}
	}
}

func TestLateSlowThresholdForcesRetention(t *testing.T) {
	var slowKinds []string
	tr := NewTracer(1<<30, 8, time.Millisecond, func(kind string) { slowKinds = append(slowKinds, kind) })
	tr.Begin("warmup", 0, false, time.Now()) // burn the period's one sampled tick

	// Unsampled and fast: no trace, so nothing to retain.
	now := time.Now()
	if x := tr.Late("query", 0, now.Add(-time.Microsecond), now); x != nil {
		t.Fatal("Late returned a trace below the slow threshold")
	}
	// Unsampled but slow: must land in the slow ring with 100% probability.
	start := time.Now().Add(-2 * time.Millisecond)
	x := tr.Late("query", 0, start, time.Now())
	if x == nil {
		t.Fatal("Late returned nil above the slow threshold")
	}
	if x.Sampled() {
		t.Fatal("a late trace is sampled")
	}
	x.SetAttr("session", "7")
	x.Span("evaluate", start, time.Now())
	x.Finish()

	if n := tr.SlowCount(); n != 1 {
		t.Fatalf("slow ring holds %d, want 1", n)
	}
	if len(slowKinds) != 1 || slowKinds[0] != "query" {
		t.Fatalf("onSlow fired with %v", slowKinds)
	}
	recs := tr.SlowLog(10)
	if len(recs) != 1 {
		t.Fatalf("SlowLog returned %d records", len(recs))
	}
	r := recs[0]
	if r.Kind != "query" || r.Attrs["session"] != "7" || r.StageNS["evaluate"] <= 0 {
		t.Fatalf("slow record = %+v", r)
	}
	if r.TotalNS < time.Millisecond.Nanoseconds() {
		t.Fatalf("slow record total %d below threshold", r.TotalNS)
	}
	// Unsampled traces stay off /tracez...
	if got := len(tr.Slowest(100)); got != 0 {
		t.Fatalf("unsampled slow trace leaked into the sampled ring (%d)", got)
	}
	// ...but remain findable by ID for /tracez?id=.
	if _, ok := tr.FindByID(x.TraceID()); !ok {
		t.Fatal("slow trace not findable by ID")
	}
	// A wire-propagated ID names the late trace too.
	if y := tr.Late("query", 0xfeed, start, time.Now()); y.TraceID() != 0xfeed {
		t.Fatalf("late trace ID = %x, want feed", y.TraceID())
	}
}

func TestBeginFastPathAndForceSample(t *testing.T) {
	tr := NewTracer(1<<30, 8, 0, nil)
	tr.Begin("warmup", 0, false, time.Now()) // burn the period's one sampled tick
	// Unsampled: Begin must return nil (no alloc), whatever the entry's
	// start — slowness is Late's business.
	if x := tr.Begin("ingest", 0, false, time.Now().Add(-time.Hour)); x != nil {
		t.Fatal("unsampled Begin returned a trace")
	}
	// forceSample (wire -trace) overrides the sampler and keeps the ID.
	x := tr.Begin("query", 0xabcdef, true, time.Now())
	if x == nil || !x.Sampled() {
		t.Fatal("forceSample did not sample")
	}
	if x.TraceID() != 0xabcdef {
		t.Fatalf("trace ID = %x, want wire-propagated abcdef", x.TraceID())
	}
	x.Finish()
	snap, ok := tr.FindByID(0xabcdef)
	if !ok || snap.TraceID != TraceIDString(0xabcdef) {
		t.Fatalf("forced trace not served by ID: %+v ok=%v", snap, ok)
	}
}

// TestTraceUnsampledPathZeroAllocs pins the tracer's cost in allocations,
// which are deterministic, where the retired E14 timing floor was not: on
// the server's own configuration — the slow log armed at its default — an
// entry the sampler passes over and that finishes below the threshold
// allocates nothing, neither at Begin nor at Late.
func TestTraceUnsampledPathZeroAllocs(t *testing.T) {
	now := time.Now()
	tr := NewTracer(1<<30, 8, DefaultSlowQuery, func(string) {})
	tr.Begin("warmup", 0, false, now) // burn the period's one sampled tick
	if n := testing.AllocsPerRun(1000, func() { tr.Begin("ingest", 0, false, now) }); n != 0 {
		t.Errorf("unsampled Begin = %v allocs, want 0", n)
	}
	fast := now.Add(DefaultSlowQuery - time.Nanosecond)
	if n := testing.AllocsPerRun(1000, func() { tr.Late("ingest", 0, now, fast) }); n != 0 {
		t.Errorf("below-threshold Late = %v allocs, want 0", n)
	}
}

// TestTraceStampedOneAlloc replaces the retired E18 timing floor: a fully
// stamped trace is the one allocation of the Trace itself (spans and
// attributes live in its inline arrays; publishing into a full ring
// overwrites a slot).
func TestTraceStampedOneAlloc(t *testing.T) {
	now := time.Now()
	every := NewTracer(1, 4, 0, nil)
	spans := [8]string{"decode", "queue-wait", "plan", "seal", "dot", "merge", "encode", "write"}
	attrs := [6]string{"session", "class", "kind", "plan", "bytes", "frames"}
	stamped := func() {
		x := every.Begin("query", 0, false, now)
		for _, s := range spans {
			x.Span(s, now, now)
		}
		for _, k := range attrs {
			x.SetAttr(k, "v")
		}
		x.Finish()
	}
	for i := 0; i < every.Capacity(); i++ {
		stamped() // fill the ring so Finish overwrites instead of appending
	}
	if n := testing.AllocsPerRun(1000, stamped); n != 1 {
		t.Errorf("8-span 6-attr trace into a full ring = %v allocs, want 1", n)
	}
}

func TestSlowRingBounded(t *testing.T) {
	tr := NewTracer(1<<30, 8, time.Nanosecond, nil)
	tr.Begin("warmup", 0, false, time.Now())
	for i := 0; i < 3*DefaultSlowBuffer; i++ {
		tr.Late("query", 0, time.Now().Add(-time.Millisecond), time.Now()).Finish()
	}
	if n := tr.SlowCount(); n != DefaultSlowBuffer {
		t.Fatalf("slow ring holds %d, want capacity %d", n, DefaultSlowBuffer)
	}
	if n := len(tr.SlowLog(10)); n != 10 {
		t.Fatalf("SlowLog(10) returned %d", n)
	}
}

// TestTraceConcurrentChildren is the obs-race half of the distributed
// tracing satellite: many goroutines attach child spans to one trace while
// readers snapshot both rings, and stragglers keep stamping after Finish.
func TestTraceConcurrentChildren(t *testing.T) {
	tr := NewTracer(1, 64, time.Nanosecond, nil)
	x := tr.Begin("fleet-query", 0, false, time.Now())
	root := x.StartSpan(0, "evaluate")

	const workers = 8
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sid := x.StartSpan(root, fmt.Sprintf("session-%d", w))
				x.AddSpan(sid, "queue-wait", time.Now(), time.Now())
				x.EndSpan(sid)
				x.SetAttr(fmt.Sprintf("w%d", w), "done")
				if i == 100 && w == 0 {
					x.Finish() // some writers race the publication
				}
			}
		}(w)
	}
	var rg sync.WaitGroup
	rg.Add(1)
	go func() {
		defer rg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				tr.Slowest(16)
				tr.SlowLog(16)
				tr.FindByID(x.TraceID())
			}
		}
	}()
	wg.Wait()
	x.EndSpan(root)
	x.Finish()
	close(stop)
	rg.Wait()

	snap, ok := tr.FindByID(x.TraceID())
	if !ok {
		t.Fatal("trace lost")
	}
	for _, sp := range snap.Spans {
		if sp.OffsetNS+sp.DurationNS > snap.TotalNS {
			t.Fatalf("span %s extends past sealed total", sp.Name)
		}
	}
}

func TestHistogramExemplarExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("t_lat_seconds", "Latency.", []float64{0.01, 1})
	h.ObserveExemplar(0.5, 0xdeadbeef)
	h.ObserveExemplar(0.002, 0) // zero trace ID: counted, no exemplar

	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	out := buf.String()
	validateExposition(t, out)
	want := `t_lat_seconds_bucket{le="1"} 2 # {trace_id="00000000deadbeef"} 0.5`
	if !strings.Contains(out, want) {
		t.Fatalf("exposition missing exemplar line %q:\n%s", want, out)
	}
	if strings.Contains(out, `le="0.01"} 1 #`) {
		t.Fatalf("bucket without traced observation grew an exemplar:\n%s", out)
	}
	if h.Count() != 2 {
		t.Fatalf("count = %d, want 2", h.Count())
	}
}

func TestTraceIDString(t *testing.T) {
	if got := TraceIDString(0x1a2b); got != "0000000000001a2b" {
		t.Fatalf("TraceIDString = %q", got)
	}
}
