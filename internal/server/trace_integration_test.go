package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"aims/internal/core"
	"aims/internal/obs"
	"aims/internal/wire"
)

// getTraceByID polls /tracez?id= until the trace is published (the handler
// finishes the trace just after flushing the reply, so the client can race
// the ring insert by a few microseconds).
func getTraceByID(t *testing.T, h http.Handler, id uint64) obs.TraceSnapshot {
	t.Helper()
	path := "/tracez?id=" + obs.TraceIDString(id)
	deadline := time.Now().Add(2 * time.Second)
	for {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code == http.StatusOK {
			var snap obs.TraceSnapshot
			if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
				t.Fatalf("%s JSON: %v", path, err)
			}
			return snap
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d %q", path, rec.Code, rec.Body.String())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestQueryTraceOverWire forces one query trace from the client side: the
// wire payload carries (trace ID, sampled) end-to-end and /tracez?id=
// serves the span tree under the client's own ID even though the server's
// 1/N sampler would never have picked it.
func TestQueryTraceOverWire(t *testing.T) {
	srv, addr := startServer(t, Config{
		Store:       testStoreCfg(),
		TraceSample: 1 << 20, // sampler effectively off: only forced traces land
	})
	h := srv.AdminHandler()

	c := fleetClient(t, addr, "traced", "cyberglove", 0, 256, 2)
	tid := wire.NewTraceID()
	r, err := c.Query(wire.Query{
		Kind: wire.QueryAverage, Channel: 0, T0: 0, T1: 2,
		TraceID: tid, TraceSampled: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Code != wire.CodeOK {
		t.Fatalf("query code = %v", r.Code)
	}

	snap := getTraceByID(t, h, tid)
	if snap.Kind != "query" {
		t.Errorf("trace kind = %q, want query", snap.Kind)
	}
	if snap.TraceID != obs.TraceIDString(tid) {
		t.Errorf("trace id = %q, want %q", snap.TraceID, obs.TraceIDString(tid))
	}
	names := map[string]int{}
	for _, sp := range snap.Spans {
		names[sp.Name]++
	}
	for _, want := range []string{"decode", "evaluate", "respond"} {
		if names[want] == 0 {
			t.Errorf("trace missing %q span: have %v", want, names)
		}
	}
	if snap.Attrs["session"] == "" || snap.Attrs["class"] != "cyberglove" {
		t.Errorf("trace attrs = %v, want session and class", snap.Attrs)
	}

	// A second query WITHOUT forced sampling must not be retrievable: the
	// sampler is effectively off and the slow ring is not at stake here.
	tid2 := wire.NewTraceID()
	if _, err := c.Query(wire.Query{
		Kind: wire.QueryAverage, Channel: 0, T0: 0, T1: 2, TraceID: tid2,
	}); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/tracez?id="+obs.TraceIDString(tid2), nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("unsampled trace lookup = %d, want 404", rec.Code)
	}
}

// TestFleetTraceTreeOverWire is the tentpole acceptance test: a fleet
// query forced-sampled from the client stitches every per-session
// evaluation into ONE tree — scope-match and merge at the top, one
// session-<id> subtree per scoped session, each holding its evaluation
// spans — retrievable by the client's trace ID.
func TestFleetTraceTreeOverWire(t *testing.T) {
	const gloves = 3
	srv, addr := startServer(t, Config{
		Store:       testStoreCfg(),
		TraceSample: 1 << 20,
	})
	h := srv.AdminHandler()

	clients := make([]*wire.Client, 0, gloves)
	for i := 0; i < gloves; i++ {
		clients = append(clients, fleetClient(t, addr, fmt.Sprintf("glove-%d", i), "cyberglove", i, 512, 2))
	}

	tid := wire.NewTraceID()
	fr, err := clients[0].FleetQuery(wire.FleetQuery{
		Query: wire.Query{
			Kind: wire.QueryCount, Channel: 1, T0: 0.5, T1: 4.0,
			TraceID: tid, TraceSampled: true,
		},
		Scope: wire.FleetScope{Class: "cyberglove"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !fr.OK || fr.Sessions != gloves {
		t.Fatalf("fleet result: %+v", fr)
	}

	snap := getTraceByID(t, h, tid)
	if snap.Kind != "fleet-query" {
		t.Errorf("trace kind = %q, want fleet-query", snap.Kind)
	}

	byID := map[obs.SpanID]obs.Span{}
	children := map[obs.SpanID][]obs.Span{}
	names := map[string]int{}
	for _, sp := range snap.Spans {
		byID[sp.ID] = sp
		children[sp.Parent] = append(children[sp.Parent], sp)
		names[sp.Name]++
	}

	for _, want := range []string{"decode", "evaluate", "scope-match", "merge", "respond"} {
		if names[want] == 0 {
			t.Errorf("tree missing %q span: have %v", want, names)
		}
	}

	// One session-<id> subtree per scoped session, each a child of the
	// evaluate span and each holding the session's evaluation spans
	// (QueryCount is exact, so one scan span and nothing else).
	var evalID obs.SpanID
	for _, sp := range snap.Spans {
		if sp.Name == "evaluate" {
			evalID = sp.ID
		}
	}
	sessionSpans := 0
	for _, sp := range snap.Spans {
		if !strings.HasPrefix(sp.Name, "session-") {
			continue
		}
		sessionSpans++
		if sp.Parent != evalID {
			t.Errorf("span %q parent = %d, want evaluate (%d)", sp.Name, sp.Parent, evalID)
		}
		kidNames := map[string]int{}
		for _, kid := range children[sp.ID] {
			kidNames[kid.Name]++
		}
		if kidNames["scan"] != 1 || len(kidNames) != 1 {
			t.Errorf("subtree %q holds %v, want one scan span", sp.Name, kidNames)
		}
	}
	if sessionSpans != gloves {
		t.Errorf("tree has %d session subtrees, want %d\n%v", sessionSpans, gloves, names)
	}
	if got := snap.Attrs["sessions"]; got != fmt.Sprint(gloves) {
		t.Errorf("attrs[sessions] = %q, want %d (attrs %v)", got, gloves, snap.Attrs)
	}

	// An approximate fleet query over the same scope must surface the plan
	// spans (seal on first touch, plan-compile or plan-hit, dot) inside
	// each session subtree.
	tid2 := wire.NewTraceID()
	fa, err := clients[0].FleetQuery(wire.FleetQuery{
		Query: wire.Query{
			Kind: wire.QueryApproxCount, Channel: 1, T0: 0.5, T1: 4.0, Arg: 16,
			TraceID: tid2, TraceSampled: true,
		},
		Scope: wire.FleetScope{Class: "cyberglove"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !fa.OK {
		t.Fatalf("approx fleet result: %+v", fa)
	}
	snap2 := getTraceByID(t, h, tid2)
	planSpans := map[string]int{}
	for _, sp := range snap2.Spans {
		switch sp.Name {
		case "plan-compile", "plan-hit", "dot", "seal":
			planSpans[sp.Name]++
		}
	}
	if planSpans["dot"] != gloves {
		t.Errorf("approx tree has %d dot spans, want %d (%v)", planSpans["dot"], gloves, planSpans)
	}
	if planSpans["plan-compile"]+planSpans["plan-hit"] != gloves {
		t.Errorf("approx tree plan spans = %v, want compile+hit == %d", planSpans, gloves)
	}
}

// TestApproxTraceAccountsForEvaluate pins that the trace tells the truth
// about a query beside live ingest: a force-sampled approximate COUNT
// issued right after an append must yield an evaluate span whose children
// cover at least 90 % of it. At the default live geometry the query walks
// the count cube, so those children are the plan lookup and the dot (the
// data energy brought current, ordering, walk and bound), and there is no
// seal span; at 512 time buckets, where the time axis goes wavelet, an
// incremental seal comes first. A cube-sized pass between an append and
// its answer (the energy rescan this store used to pay) has no child span
// and would show here as most of evaluate going unexplained.
func TestApproxTraceAccountsForEvaluate(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  core.LiveStoreConfig
		seal bool
	}{
		{"cube", core.LiveStoreConfig{}, false}, // default live geometry: a 28×256×64 count cube
		{"sealed", core.LiveStoreConfig{TimeBuckets: 512}, true},
	} {
		t.Run(tc.name, func(t *testing.T) { testApproxTraceAccounts(t, tc.cfg, tc.seal) })
	}
}

func testApproxTraceAccounts(t *testing.T, cfg core.LiveStoreConfig, seal bool) {
	const channels, batch = 28, 512
	srv, addr := startServer(t, Config{TraceSample: 1 << 20, Store: cfg})
	h := srv.AdminHandler()
	sent := 2048
	c := fleetClient(t, addr, "analyst", "cyberglove", 0, sent, channels)
	q := wire.Query{Kind: wire.QueryApproxCount, Channel: 3, T0: 0, T1: 20, Arg: 64}
	if r, err := c.Query(q); err != nil || r.Code != wire.CodeOK {
		t.Fatalf("warm-up query (first seal or energy pass, plan compile): %+v, %v", r, err)
	}

	// One descheduling between two timestamps can dent a single sample, so
	// the best of a few append→query rounds is judged; an unattributed
	// cube pass would dent every one of them.
	var best float64
	var bestSpans []obs.Span
	for round := 0; round < 8 && best < 0.9; round++ {
		frames := clientFrames(round, batch, channels)
		for i := range frames {
			frames[i].T = float64(sent+i) / 100
		}
		sent += batch
		if err := c.SendBatch(frames); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		q.TraceID, q.TraceSampled = wire.NewTraceID(), true
		if r, err := c.Query(q); err != nil || r.Code != wire.CodeOK {
			t.Fatalf("traced query: %+v, %v", r, err)
		}
		snap := getTraceByID(t, h, q.TraceID)
		var eval obs.Span
		for _, sp := range snap.Spans {
			if sp.Name == "evaluate" {
				eval = sp
			}
		}
		var covered int64
		sealed := false
		for _, sp := range snap.Spans {
			if sp.Parent != eval.ID {
				continue
			}
			switch sp.Name {
			case "seal":
				sealed = true
				covered += sp.DurationNS
			case "plan-hit", "plan-compile", "dot":
				covered += sp.DurationNS
			}
		}
		if eval.DurationNS == 0 || sealed != seal {
			t.Fatalf("round %d: want an evaluate span with a seal child %v: %+v", round, seal, snap.Spans)
		}
		if cov := float64(covered) / float64(eval.DurationNS); cov > best {
			best, bestSpans = cov, snap.Spans
		}
	}
	if best < 0.9 {
		t.Fatalf("the children cover %.0f%% of evaluate at best, want ≥ 90%%: %+v", 100*best, bestSpans)
	}
}

// TestSlowQueryLogAlwaysOn pins the always-on promise: with a 1ns
// threshold and the sampler effectively off, an ordinary untraced query
// still lands in /slowlog with its structured fields, bumps
// aims_slow_queries_total{kind="query"}, and stamps a trace-ID exemplar
// onto the latency histogram; so do an untraced fleet query, rebuilt from
// its root stages, and the ingest batches.
func TestSlowQueryLogAlwaysOn(t *testing.T) {
	srv, addr := startServer(t, Config{
		Store:       testStoreCfg(),
		TraceSample: 1 << 20,
		SlowQuery:   time.Nanosecond,
	})
	h := srv.AdminHandler()

	c := fleetClient(t, addr, "slowpoke", "cyberglove", 0, 256, 2)
	// A deliberately plain query: no trace context on the wire at all.
	if _, err := c.Query(wire.Query{Kind: wire.QueryApproxCount, Channel: 0, T0: 0, T1: 2, Arg: 16}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FleetQuery(wire.FleetQuery{
		Query: wire.Query{Kind: wire.QueryCount, Channel: 0, T0: 0, T1: 2},
		Scope: wire.FleetScope{Class: "cyberglove"},
	}); err != nil {
		t.Fatal(err)
	}

	var slog struct {
		ThresholdNS int64            `json:"threshold_ns"`
		Count       int              `json:"count"`
		Records     []obs.SlowRecord `json:"records"`
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/slowlog", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("/slowlog = %d", rec.Code)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &slog); err != nil {
			t.Fatalf("/slowlog JSON: %v", err)
		}
		kinds := map[string]bool{}
		for _, r := range slog.Records {
			kinds[r.Kind] = true
		}
		if kinds["query"] && kinds["fleet-query"] || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if slog.ThresholdNS != 1 {
		t.Errorf("threshold_ns = %d, want 1", slog.ThresholdNS)
	}
	var qrec *obs.SlowRecord
	for i := range slog.Records {
		if slog.Records[i].Kind == "query" {
			qrec = &slog.Records[i]
			break
		}
	}
	if qrec == nil {
		t.Fatalf("/slowlog has no query record: %+v", slog.Records)
	}
	if qrec.TraceID == "" || qrec.TotalNS <= 0 {
		t.Errorf("slow record incomplete: %+v", qrec)
	}
	if qrec.Attrs["session"] == "" || qrec.Attrs["box_volume"] == "" {
		t.Errorf("slow record attrs = %v, want session and box_volume", qrec.Attrs)
	}
	if qrec.StageNS["evaluate"] == 0 {
		t.Errorf("slow record stages = %v, want evaluate", qrec.StageNS)
	}

	var frec *obs.SlowRecord
	for i := range slog.Records {
		if slog.Records[i].Kind == "fleet-query" {
			frec = &slog.Records[i]
			break
		}
	}
	if frec == nil {
		t.Fatalf("/slowlog has no fleet-query record: %+v", slog.Records)
	}
	if frec.StageNS["evaluate"] <= 0 || frec.Attrs["session"] == "" || frec.Attrs["scope"] != "class=cyberglove" {
		t.Errorf("fleet-query slow record = %+v, want evaluate stage, session and scope", frec)
	}

	// Every stored batch is timed in the queue, sampled or not.
	if _, err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	waits, batches := metricValue(t, body, "aims_ingest_queue_wait_seconds_count"), metricValue(t, body, "aims_ingest_batches_total")
	if waits != batches || batches == 0 {
		t.Errorf("queue-wait observations = %v, want one per stored batch (%v)", waits, batches)
	}
	if !strings.Contains(body, `aims_slow_queries_total{kind="query"} 1`) {
		t.Errorf("metrics missing slow-query counter:\n%s", grepLines(body, "slow"))
	}
	// The latency histogram carries the slow queries' trace IDs as
	// OpenMetrics exemplars even though the client never asked for
	// tracing: the fleet query's in the bucket it landed in, the plain
	// query's unless the fleet query overwrote it there.
	exemplars := exemplarRe.FindAllStringSubmatch(body, -1)
	if !strings.Contains(body, `# {trace_id="`+frec.TraceID+`"}`) {
		t.Errorf("metrics missing exemplar for trace %s:\n%s", frec.TraceID, grepLines(body, "aims_query_seconds"))
	}
	for _, m := range exemplars {
		if m[1] != qrec.TraceID && m[1] != frec.TraceID {
			t.Errorf("exemplar %s names neither slow query", m[1])
		}
	}

	// Ingest traces cross the 1ns bar too: the batch the fixture streamed
	// must already have landed in the slow ring under kind=ingest.
	hasIngest := false
	for _, r := range slog.Records {
		if r.Kind == "ingest" {
			hasIngest = true
		}
	}
	if !hasIngest {
		t.Errorf("/slowlog has no ingest record: %+v", slog.Records)
	}
}

// TestIngestTraceStampedWhereBatchEnds pins the one stamping block of an
// ingest trace on the late path: with every batch slow, a stored batch's
// record carries the appender's stages, and a duplicate, a trimmed replay
// and a refused batch each carry the note of where the reader ended them.
func TestIngestTraceStampedWhereBatchEnds(t *testing.T) {
	srv, addr := startServer(t, Config{Store: testStoreCfg(), TraceSample: 1 << 20, SlowQuery: time.Nanosecond})
	h := srv.AdminHandler()
	rs := dialRaw(t, addr, "replayer", 2)
	rs.writeBatch(0, 16, 2) // stored
	rs.writeBatch(0, 16, 2) // duplicate
	rs.writeBatch(8, 16, 2) // trimmed to [16,24), stored
	rs.writeBatch(64, 8, 2) // a gap: refused, and the link torn down
	rs.flush()
	rs.expectAck(0, wire.CodeOK)
	rs.expectAck(0, wire.CodeDuplicate)
	rs.expectAck(8, wire.CodeOK)

	notes := map[string]obs.SlowRecord{}
	waitFor(func() bool {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/slowlog", nil))
		var slog struct{ Records []obs.SlowRecord }
		if err := json.Unmarshal(rec.Body.Bytes(), &slog); err != nil {
			t.Fatalf("/slowlog JSON: %v", err)
		}
		for _, r := range slog.Records {
			for _, note := range []string{"append", "duplicate", "trimmed", "refused"} {
				if _, ok := r.StageNS[note]; ok && r.Kind == "ingest" {
					notes[note] = r
				}
			}
		}
		return len(notes) == 4
	})
	for _, note := range []string{"append", "duplicate", "trimmed", "refused"} {
		r, ok := notes[note]
		if !ok {
			t.Errorf("no ingest record with a %q stage: have %v", note, notes)
			continue
		}
		if _, ok := r.StageNS["decode"]; !ok || r.Attrs["session"] == "" || r.Attrs["bytes"] == "" {
			t.Errorf("%s record = %+v, want decode stage, session and bytes", note, r)
		}
	}
	for _, stage := range []string{"enqueue", "queue-wait"} {
		if _, ok := notes["append"].StageNS[stage]; !ok {
			t.Errorf("stored batch record lacks %q: %+v", stage, notes["append"])
		}
	}
	if _, ok := notes["trimmed"].StageNS["append"]; !ok || notes["trimmed"].Attrs["frames"] != "8" {
		t.Errorf("trimmed record = %+v, want the 8 stored frames appended", notes["trimmed"])
	}
}

// TestEveryExemplarResolves pins that the latency histogram links only to
// traces a client can fetch: on a default server whose sampler never picks
// a query, one forced query leaves an exemplar, and the unsampled fleet and
// plain queries after it — fast, so traced neither live nor late — must not
// stamp exemplars whose traces were never kept.
func TestEveryExemplarResolves(t *testing.T) {
	srv, addr := startServer(t, Config{Store: testStoreCfg(), TraceSample: 1 << 20})
	h := srv.AdminHandler()
	c := fleetClient(t, addr, "exemplars", "cyberglove", 0, 256, 2)

	q := wire.Query{Kind: wire.QueryCount, Channel: 0, T0: 0, T1: 2}
	forced := q
	forced.TraceID, forced.TraceSampled = wire.NewTraceID(), true
	if _, err := c.Query(forced); err != nil {
		t.Fatal(err)
	}
	fq := wire.FleetQuery{Query: q, Scope: wire.FleetScope{Class: "cyberglove"}}
	for i := 0; i < 3; i++ {
		if _, err := c.FleetQuery(fq); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Query(q); err != nil {
			t.Fatal(err)
		}
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	ids := exemplarRe.FindAllStringSubmatch(rec.Body.String(), -1)
	if len(ids) == 0 {
		t.Fatalf("no exemplar on /metrics:\n%s", grepLines(rec.Body.String(), "aims_query_seconds"))
	}
	for _, m := range ids {
		id, err := strconv.ParseUint(m[1], 16, 64)
		if err != nil {
			t.Fatal(err)
		}
		getTraceByID(t, h, id) // fails the test unless /tracez?id= answers 200
	}
}

var exemplarRe = regexp.MustCompile(`# \{trace_id="([0-9a-f]{16})"\}`)

// metricValue returns the value of the unlabelled series name in a
// Prometheus text exposition.
func metricValue(t *testing.T, body, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return f
		}
	}
	t.Fatalf("no %s series:\n%s", name, body)
	return 0
}

// grepLines returns the lines of s containing substr, for compact failure
// output.
func grepLines(s, substr string) string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}
