package obs

import (
	"bytes"
	"io"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeHistogramValues(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("t_frames_total", "frames")
	c.Inc()
	c.Add(9)
	if c.Value() != 10 {
		t.Fatalf("counter = %d", c.Value())
	}
	g := r.Gauge("t_depth", "depth")
	g.Add(5)
	g.Add(-2)
	if g.Value() != 3 {
		t.Fatalf("gauge = %d", g.Value())
	}
	g.Set(-7)
	if g.Value() != -7 {
		t.Fatalf("gauge after set = %d", g.Value())
	}
	h := r.Histogram("t_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("histogram count = %d", h.Count())
	}
	want := []uint64{2, 1, 1, 1} // <=0.1, <=1, <=10, +Inf
	got := h.BucketCounts()
	if len(got) != len(want) {
		t.Fatalf("bucket slice length %d, want %d (bounds+1)", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d (%v)", i, got[i], want[i], got)
		}
	}
	if h.Sum() != 102.65 {
		t.Fatalf("histogram sum = %v", h.Sum())
	}
}

func TestRegistrationIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("t_x_total", "x")
	b := r.Counter("t_x_total", "x")
	if a != b {
		t.Fatal("same identity returned distinct counters")
	}
	l1 := r.CounterWith("t_x_total", `dir="in"`, "x")
	if l1 == a {
		t.Fatal("labelled counter aliased the unlabelled one")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering an identity as a different kind did not panic")
		}
	}()
	r.Gauge("t_x_total", "x")
}

var (
	headerRe = regexp.MustCompile(`^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+$`)
	// A sample line, optionally carrying an OpenMetrics exemplar suffix
	// (` # {trace_id="..."} value`) on histogram buckets.
	sampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? [^ ]+( # \{[^}]*\} [^ ]+)?$`)
)

// validateExposition is the shared Prometheus-text checker: every line is
// a well-formed HELP/TYPE header or sample, each metric name has exactly
// one HELP and one TYPE line (before its samples), and no series key
// (name+labels) repeats.
func validateExposition(t *testing.T, text string) map[string]bool {
	t.Helper()
	names := map[string]bool{}
	helpSeen := map[string]int{}
	typeSeen := map[string]int{}
	series := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# ") {
			if !headerRe.MatchString(line) {
				t.Fatalf("malformed header line %q", line)
			}
			f := strings.Fields(line)
			if f[1] == "HELP" {
				helpSeen[f[2]]++
			} else {
				typeSeen[f[2]]++
			}
			continue
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed sample line %q", line)
		}
		key := m[1] + m[2]
		if series[key] {
			t.Fatalf("duplicate series %q", key)
		}
		series[key] = true
		// _bucket/_sum/_count roll up to the histogram's base name.
		base := m[1]
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(base, suf) {
				base = strings.TrimSuffix(base, suf)
			}
		}
		names[base] = true
		if helpSeen[base] == 0 || typeSeen[base] == 0 {
			t.Fatalf("sample %q before its HELP/TYPE header", line)
		}
	}
	for name, n := range helpSeen {
		if n != 1 || typeSeen[name] != 1 {
			t.Fatalf("metric %s has %d HELP / %d TYPE lines", name, n, typeSeen[name])
		}
	}
	return names
}

func TestWritePrometheusWellFormed(t *testing.T) {
	r := NewRegistry()
	r.Counter("t_frames_total", "Frames ingested.").Add(7)
	r.CounterWith("t_bytes_total", `dir="in",type="batch"`, "Wire bytes.").Add(100)
	r.CounterWith("t_bytes_total", `dir="out",type="result"`, "Wire bytes.").Add(42)
	r.Gauge("t_depth", "Queue depth.").Set(3)
	r.Histogram("t_seconds", "Latency.", []float64{0.001, 0.1}).Observe(0.05)
	r.HistogramWith("t_seal_seconds", `mode="incremental"`, "Seal time.", []float64{0.01}).Observe(0.5)
	r.GaugeFunc("t_util", "Utilisation.", func() float64 { return 0.25 })
	r.CounterFunc("t_lines_total", "Lines.", func() float64 { return 12 })

	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	names := validateExposition(t, buf.String())
	for _, want := range []string{
		"t_frames_total", "t_bytes_total", "t_depth", "t_seconds",
		"t_seal_seconds", "t_util", "t_lines_total",
	} {
		if !names[want] {
			t.Fatalf("registered instrument %s missing from exposition:\n%s", want, buf.String())
		}
	}
	out := buf.String()
	for _, want := range []string{
		`t_bytes_total{dir="in",type="batch"} 100`,
		`t_seconds_bucket{le="+Inf"} 1`,
		`t_seconds_sum 0.05`,
		`t_seconds_count 1`,
		`t_seal_seconds_bucket{mode="incremental",le="0.01"} 0`,
		`t_seal_seconds_count{mode="incremental"} 1`,
		"t_util 0.25",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestRegistryConcurrency hammers instruments, registration and
// exposition from many goroutines; run under -race this is the registry
// half of the observability stress satellite.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("t_hits_total", "hits")
	g := r.Gauge("t_depth", "depth")
	h := r.Histogram("t_seconds", "lat", []float64{0.001, 0.01, 0.1})
	const workers, per = 16, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i%100) / 1000)
				g.Add(-1)
				if i%100 == 0 {
					// Concurrent idempotent registration and scraping.
					r.Counter("t_hits_total", "hits")
					r.WritePrometheus(io.Discard)
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*per)
	}
	if g.Value() != 0 {
		t.Fatalf("gauge = %d, want exactly 0 after symmetric add/sub", g.Value())
	}
	if h.Count() != workers*per {
		t.Fatalf("histogram count = %d", h.Count())
	}
}

func TestTracerSamplingAndRing(t *testing.T) {
	tr := NewTracer(4, 8, 0, nil)
	sampled := 0
	for i := 0; i < 64; i++ {
		if x := tr.Begin("ingest", 0, false, time.Now()); x != nil {
			sampled++
			t0 := time.Now()
			x.Span("decode", t0, t0.Add(time.Microsecond))
			x.Span("append", t0.Add(time.Microsecond), t0.Add(3*time.Microsecond))
			x.Finish()
			x.Finish() // double Finish is a no-op
		}
	}
	if sampled != 16 {
		t.Fatalf("sampled %d of 64 at 1/4", sampled)
	}
	slow := tr.Slowest(100)
	if len(slow) != 8 {
		t.Fatalf("ring kept %d traces, want its capacity 8", len(slow))
	}
	for i := 1; i < len(slow); i++ {
		if slow[i].TotalNS > slow[i-1].TotalNS {
			t.Fatal("Slowest not ordered by total duration")
		}
	}
	if len(slow[0].Spans) != 2 {
		t.Fatalf("trace has %d spans, want 2", len(slow[0].Spans))
	}
}

// TestNilTraceIsNoop pins the untraced path: an entry that neither Begin
// nor Late kept runs with a nil *Trace, and every method on it is a no-op.
func TestNilTraceIsNoop(t *testing.T) {
	var x *Trace
	if x.TraceID() != 0 || x.Sampled() {
		t.Fatal("nil trace has an identity")
	}
	if x.StartSpan(0, "a") != 0 || x.AddSpan(0, "b", time.Now(), time.Now()) != 0 {
		t.Fatal("nil trace handed out a span ID")
	}
	x.EndSpan(1) // must not panic
	x.Span("c", time.Now(), time.Now())
	x.Annotate("d")
	x.SetAttr("e", "f")
	x.Finish()
}

func TestTracerEveryOneSamplesAll(t *testing.T) {
	tr := NewTracer(1, 4, 0, nil)
	for i := 0; i < 5; i++ {
		x := tr.Begin("q", 0, false, time.Now())
		if x == nil {
			t.Fatal("1/1 sampling skipped an entry")
		}
		x.Finish()
	}
	if got := len(tr.Slowest(10)); got != 4 {
		t.Fatalf("ring size %d, want 4", got)
	}
}
