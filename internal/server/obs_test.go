package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"aims/internal/core"
	"aims/internal/propolyne"
	"aims/internal/stream"
	"aims/internal/wire"
)

// checkExposition asserts the Prometheus text rules the admin plane
// promises scrapers: every sample line is preceded by exactly one HELP and
// one TYPE comment for its base metric name, and no series (name + label
// set) appears twice.
func checkExposition(t *testing.T, text string) {
	t.Helper()
	headerRe := regexp.MustCompile(`^# (HELP|TYPE) ([a-zA-Z_:][a-zA-Z0-9_:]*) .+$`)
	// Bucket lines may carry an OpenMetrics exemplar suffix linking the
	// observation to its trace (` # {trace_id="..."} value`).
	sampleRe := regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? [^ ]+( # \{[^}]*\} [^ ]+)?$`)
	helps := map[string]int{}
	types := map[string]int{}
	series := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			m := headerRe.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("malformed comment line: %q", line)
			}
			if m[1] == "HELP" {
				helps[m[2]]++
			} else {
				types[m[2]]++
			}
			continue
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed sample line: %q", line)
		}
		base := m[1]
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if trimmed := strings.TrimSuffix(base, suf); trimmed != base && types[trimmed] > 0 {
				base = trimmed
				break
			}
		}
		if helps[base] == 0 || types[base] == 0 {
			t.Errorf("sample %q has no preceding HELP/TYPE for %q", line, base)
		}
		key := m[1] + m[2]
		if series[key] {
			t.Errorf("duplicate series %q", key)
		}
		series[key] = true
	}
	for name, n := range helps {
		if n != 1 {
			t.Errorf("HELP for %q appears %d times", name, n)
		}
	}
	for name, n := range types {
		if n != 1 {
			t.Errorf("TYPE for %q appears %d times", name, n)
		}
	}
}

// TestMetricsGolden pins the full exposition of a fresh server registry to
// testdata/metrics.golden: every instrument the server registers appears,
// well-formed, at its zero value. Run with UPDATE_GOLDEN=1 to regenerate
// after intentionally adding or renaming instruments.
func TestMetricsGolden(t *testing.T) {
	// The plan-cache gauges read the process-wide propolyne.SharedCache;
	// drop plans left behind by earlier tests so the exposition is the
	// zero state the golden file pins regardless of test order.
	propolyne.SharedCache.Purge()
	m := New(Config{}).metrics
	var buf bytes.Buffer
	m.reg.WritePrometheus(&buf)
	got := buf.String()
	checkExposition(t, got)

	for _, name := range []string{
		"aims_sessions_active", "aims_ingest_frames_total", "aims_queue_depth",
		"aims_query_seconds_bucket", "aims_ingest_decode_seconds",
		"aims_ingest_queue_wait_seconds", "aims_ingest_append_seconds",
		`aims_seal_seconds_bucket{mode="incremental"`, `aims_seal_seconds_bucket{mode="rebuild"`,
		"aims_seal_delta_entries", `aims_wire_bytes_total{dir="in",type="batch"}`,
		`aims_wire_bytes_total{dir="out",type="result"}`, "aims_query_latency_max_seconds",
	} {
		if !strings.Contains(got, name) {
			t.Errorf("exposition missing %q", name)
		}
	}

	golden := filepath.Join("testdata", "metrics.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", golden, len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to create)", err)
	}
	if got != string(want) {
		t.Errorf("exposition drifted from %s; run with UPDATE_GOLDEN=1 if intentional\ngot:\n%s", golden, got)
	}
}

// latencyHist returns the per-bucket counts of the qlat(... hist=) field
// of a rendered metrics line.
func latencyHist(t *testing.T, line string) []string {
	t.Helper()
	i := strings.Index(line, "hist=")
	if i < 0 || !strings.HasSuffix(line, ")") {
		t.Fatalf("no latency histogram in %q", line)
	}
	return strings.Split(line[i+len("hist="):len(line)-1], "/")
}

func TestSnapshotString(t *testing.T) {
	srv := New(Config{})
	m := srv.metrics
	srv.live[1], srv.live[2] = &session{id: 1}, &session{id: 2}
	m.sessionsTotal.Add(5)
	m.framesIngested.Add(1000)
	m.batchesIngested.Add(4)
	m.framesShed.Add(7)
	m.batchesShed.Add(1)
	m.queueDepth.Add(3)
	m.evictions.Inc()
	want := "sessions=2/5 frames=1000 batches=4 shed=1/7 queue=3 queries=0 evictions=1"
	if got := srv.Metrics(); got != want {
		t.Errorf("Metrics() = %q, want %q", got, want)
	}

	m.observeQuery(50*time.Microsecond, 0)
	m.observeQuery(150*time.Microsecond, 0)
	got := srv.Metrics()
	if !strings.Contains(got, "qlat(mean=100µs max=150µs hist=1/1/0/0/0/0/0/0)") {
		t.Errorf("Metrics() with queries = %q", got)
	}
	if n := len(latencyHist(t, got)); n != len(latencyBounds)+1 {
		t.Fatalf("line has %d latency buckets, latencyBounds wants %d", n, len(latencyBounds)+1)
	}
}

// TestSnapshotBucketsMatchBounds guards the satellite fix: the live
// histogram's bucket count must follow latencyBounds, never a hard-coded
// array length.
func TestSnapshotBucketsMatchBounds(t *testing.T) {
	srv := New(Config{})
	srv.metrics.observeQuery(time.Millisecond, 0)
	if n := len(latencyHist(t, srv.Metrics())); n != len(latencyBounds)+1 {
		t.Fatalf("line has %d latency buckets, want len(latencyBounds)+1 = %d",
			n, len(latencyBounds)+1)
	}
}

// TestSessionsReportStoreBytes: /sessions reports what each session's
// store holds in memory. A 28-channel glove at the default live geometry
// spans 24 ticks a bucket, more than a 4-bit cell counts, so its cube
// starts at 8 bits: it holds its first 15 frames and its 2 048 frames in
// the same 8-bit cube, which doubles once one bucket passes 255 frames.
func TestSessionsReportStoreBytes(t *testing.T) {
	srv, addr := startServer(t, Config{})
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mins, maxs := ranges(28)
	if _, err := c.Hello(wire.Hello{Rate: 100, Name: "glove", Mins: mins, Maxs: maxs}); err != nil {
		t.Fatal(err)
	}
	send := func(frames []stream.Frame) core.Footprint {
		t.Helper()
		for len(frames) > 0 {
			n := min(256, len(frames))
			if err := c.SendBatch(frames[:n]); err != nil {
				t.Fatal(err)
			}
			frames = frames[n:]
		}
		if _, err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		srv.AdminHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/sessions", nil))
		var got struct {
			Sessions []SessionInfo `json:"sessions"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil || len(got.Sessions) != 1 {
			t.Fatalf("/sessions = %d %s (%v)", rec.Code, rec.Body.String(), err)
		}
		return got.Sessions[0].StoreBytes
	}
	frames := clientFrames(0, 2048, 28)
	if got := send(frames[:15]); got.Cube != 458752 {
		t.Fatalf("after 15 frames: store bytes %+v, want an 8-bit cube of 458752 B", got)
	}
	if got := send(frames[15:]); got.Cube != 458752 {
		t.Fatalf("after 2048 frames: store bytes %+v, want an 8-bit cube of 458752 B", got)
	}
	burst := clientFrames(1, 300, 28)
	for i := range burst {
		burst[i].T = 1e4 // past the horizon: every frame in the last bucket
	}
	if got := send(burst); got.Cube != 917504 {
		t.Fatalf("after a 300-frame bucket: store bytes %+v, want a 16-bit cube of 917504 B", got)
	}
}

// TestAdminEndpoints exercises the full admin plane against a live server:
// metrics exposition, per-session JSON, trace capture with spans, health
// transitions on drain, and pprof availability.
func TestAdminEndpoints(t *testing.T) {
	srv, addr := startServer(t, Config{
		QueueFrames: 1024,
		Store:       testStoreCfg(),
		TraceSample: 1, // trace everything so /tracez is deterministic
	})
	h := srv.AdminHandler()

	get := func(path string) *httptest.ResponseRecorder {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec
	}

	if rec := get("/healthz"); rec.Code != 200 || !strings.Contains(rec.Body.String(), "ok") {
		t.Fatalf("/healthz = %d %q", rec.Code, rec.Body.String())
	}

	// Drive one real session: a batch and a query, so instruments and
	// traces have data.
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	mins, maxs := ranges(2)
	if _, err := c.Hello(wire.Hello{Rate: 100, HorizonTicks: 256, Name: "admin-test", Mins: mins, Maxs: maxs}); err != nil {
		t.Fatal(err)
	}
	if err := c.SendBatch(clientFrames(0, 64, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(wire.Query{Kind: wire.QueryAverage, Channel: 0, T0: 0, T1: 1}); err != nil {
		t.Fatal(err)
	}

	rec := get("/sessions")
	if rec.Code != 200 {
		t.Fatalf("/sessions = %d", rec.Code)
	}
	var sess struct {
		Count    int           `json:"count"`
		Sessions []SessionInfo `json:"sessions"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &sess); err != nil {
		t.Fatalf("/sessions JSON: %v", err)
	}
	if sess.Count != 1 || len(sess.Sessions) != 1 {
		t.Fatalf("/sessions count = %d, want 1", sess.Count)
	}
	if got := sess.Sessions[0]; got.Name != "admin-test" || got.FramesStored != 64 || got.Channels != 2 {
		t.Errorf("/sessions entry = %+v", got)
	}

	rec = get("/metrics")
	if rec.Code != 200 {
		t.Fatalf("/metrics = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics content-type = %q", ct)
	}
	body := rec.Body.String()
	checkExposition(t, body)
	for _, want := range []string{
		"aims_ingest_frames_total 64",
		"aims_query_seconds_count 1",
		`aims_wire_bytes_total{dir="in",type="batch"}`,
		"aims_wavelet_lines_total", // process-wide bridge metrics present
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Acceptance: /tracez returns at least one multi-span trace. The query
	// handler publishes its trace after the response is on the wire, so
	// poll until it shows up instead of racing it.
	var tz struct {
		SampleEvery int `json:"sample_every"`
		Traces      []struct {
			Kind  string `json:"kind"`
			Spans []struct {
				Name string `json:"name"`
			} `json:"spans"`
		} `json:"traces"`
	}
	multi := 0
	kinds := map[string]bool{}
	waitFor(func() bool {
		rec = get("/tracez?n=50")
		if rec.Code != 200 {
			t.Fatalf("/tracez = %d", rec.Code)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &tz); err != nil {
			t.Fatalf("/tracez JSON: %v", err)
		}
		multi = 0
		for _, tr := range tz.Traces {
			kinds[tr.Kind] = true
			if len(tr.Spans) >= 2 {
				multi++
			}
		}
		return kinds["query"]
	})
	if tz.SampleEvery != 1 {
		t.Errorf("/tracez sample_every = %d, want 1", tz.SampleEvery)
	}
	if multi == 0 {
		t.Fatalf("/tracez has no multi-span trace: %s", rec.Body.String())
	}
	if !kinds["query"] {
		t.Errorf("/tracez kinds = %v, want a query trace", kinds)
	}

	// /tracez?id= validates its parameter: non-hex is a 400, an unknown
	// trace a 404; an absurd ?n= is clamped, not an error.
	if rec := get("/tracez?id=not-hex"); rec.Code != 400 {
		t.Errorf("/tracez?id=not-hex = %d, want 400", rec.Code)
	}
	if rec := get("/tracez?id=00000000000000ff"); rec.Code != 404 {
		t.Errorf("/tracez unknown id = %d, want 404", rec.Code)
	}
	if rec := get("/tracez?n=1000000"); rec.Code != 200 {
		t.Errorf("/tracez?n=1000000 = %d, want 200", rec.Code)
	}

	// /slowlog always answers well-formed JSON, even with nothing slow.
	rec = get("/slowlog")
	if rec.Code != 200 {
		t.Fatalf("/slowlog = %d", rec.Code)
	}
	var slog struct {
		ThresholdNS int64             `json:"threshold_ns"`
		Count       int               `json:"count"`
		Records     []json.RawMessage `json:"records"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &slog); err != nil {
		t.Fatalf("/slowlog JSON: %v", err)
	}
	if slog.ThresholdNS <= 0 {
		t.Errorf("/slowlog threshold_ns = %d, want the default threshold", slog.ThresholdNS)
	}
	if slog.Count != len(slog.Records) {
		t.Errorf("/slowlog count %d != len(records) %d", slog.Count, len(slog.Records))
	}

	// Every read-only endpoint refuses non-GET methods with 405 + Allow.
	for _, path := range []string{"/metrics", "/sessions", "/fleet", "/tracez", "/slowlog"} {
		for _, method := range []string{"POST", "PUT", "DELETE"} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(method, path, nil))
			if rec.Code != 405 {
				t.Errorf("%s %s = %d, want 405", method, path, rec.Code)
			}
			if allow := rec.Header().Get("Allow"); allow != "GET" {
				t.Errorf("%s %s Allow = %q, want GET", method, path, allow)
			}
		}
	}

	if rec := get("/debug/pprof/cmdline"); rec.Code != 200 {
		t.Errorf("/debug/pprof/cmdline = %d", rec.Code)
	}

	if _, err := c.Close(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if rec := get("/healthz"); rec.Code != 503 || !strings.Contains(rec.Body.String(), "draining") {
		t.Errorf("/healthz after shutdown = %d %q, want 503 draining", rec.Code, rec.Body.String())
	}
}

// TestObsStressRace hammers the registry from many writers (concurrent
// ingesting sessions) while scrapers read the exposition, then asserts the
// queue-depth gauge has drained to exactly zero. Run under -race this
// doubles as the satellite data-race check on the instrument layer.
func TestObsStressRace(t *testing.T) {
	srv, addr := startServer(t, Config{
		QueueFrames: 4096,
		Store:       testStoreCfg(),
		TraceSample: 4,
	})

	const clients = 8
	const batches = 25
	const perBatch = 32

	stop := make(chan struct{})
	var scrapeWG sync.WaitGroup
	for i := 0; i < 2; i++ {
		scrapeWG.Add(1)
		go func() {
			defer scrapeWG.Done()
			var buf bytes.Buffer
			for {
				select {
				case <-stop:
					return
				default:
				}
				buf.Reset()
				srv.metrics.reg.WritePrometheus(&buf)
				_ = srv.Metrics()
			}
		}()
	}

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := wire.Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			mins, maxs := ranges(2)
			if _, err := c.Hello(wire.Hello{Rate: 100, HorizonTicks: uint32(batches * perBatch),
				Name: fmt.Sprintf("stress-%d", id), Mins: mins, Maxs: maxs}); err != nil {
				errs <- err
				c.Abort()
				return
			}
			for b := 0; b < batches; b++ {
				if err := c.SendBatch(clientFrames(id, perBatch, 2)); err != nil {
					errs <- err
					c.Abort()
					return
				}
			}
			if _, err := c.Query(wire.Query{Kind: wire.QueryAverage, Channel: 0, T0: 0, T1: 1}); err != nil {
				errs <- err
				c.Abort()
				return
			}
			if _, err := c.Close(); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	scrapeWG.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Every session closed cleanly (Close drains the ingest queue), so the
	// gauge must be exactly zero — any drift means a missed decrement.
	m := srv.metrics
	if d := m.queueDepth.Value(); d != 0 {
		t.Fatalf("queue depth after drain = %d, want exactly 0", d)
	}
	if want := uint64(clients * batches * perBatch); m.framesIngested.Value() != want {
		t.Fatalf("frames ingested = %d, want %d", m.framesIngested.Value(), want)
	}
}
