package server

import (
	"testing"
	"time"

	"aims/internal/wire"
)

// waitDetached polls until the server holds exactly n parked sessions.
func waitDetached(t *testing.T, srv *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for parkedCount(srv) != n && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if got := parkedCount(srv); got != n {
		t.Fatalf("detached sessions = %d, want %d", got, n)
	}
}

// TestExactlyOnceDedup drives the server's v4 watermark dedup with a plain
// client: a fully duplicate batch is acknowledged and dropped, a batch
// straddling the watermark is trimmed to its fresh suffix, and a batch
// starting ahead of the watermark (a gap — frames went missing) tears the
// link down instead of silently recording a hole. Parameterized over
// every transport: the dedup contract is a wire-protocol property and
// must not depend on what carries the bytes.
func TestExactlyOnceDedup(t *testing.T) {
	forEachTransport(t, testExactlyOnceDedup)
}

func testExactlyOnceDedup(t *testing.T, scheme string) {
	const channels = 2
	srv, addr := startServerOn(t, scheme, Config{Store: testStoreCfg()})
	frames := clientFrames(0, 200, channels)
	mins, maxs := ranges(channels)

	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Hello(wire.Hello{Rate: 100, HorizonTicks: 1 << 14, Name: "dedup", Mins: mins, Maxs: maxs}); err != nil {
		t.Fatal(err)
	}
	if err := c.SendBatch(frames[:100]); err != nil {
		t.Fatal(err)
	}
	if stored, err := c.Flush(); err != nil || stored != 100 {
		t.Fatalf("first flush: stored=%d err=%v", stored, err)
	}

	// Exact duplicate of everything already appended: acknowledged, dropped.
	if err := c.SendBatchAt(0, frames[:100]); err != nil {
		t.Fatal(err)
	}
	if stored, err := c.Flush(); err != nil || stored != 100 {
		t.Fatalf("flush after duplicate: stored=%d err=%v", stored, err)
	}
	if c.DupBatches() != 1 {
		t.Fatalf("dup batches = %d, want 1", c.DupBatches())
	}
	if n := srv.metrics.dupBatches.Value(); n != 1 {
		t.Fatalf("aims_dup_batches_total = %d after one duplicate, want 1", n)
	}

	// Straddling replay: frames [50,150) — the server must trim the first
	// 50 and append exactly the 50 fresh ones.
	if err := c.SendBatchAt(50, frames[50:150]); err != nil {
		t.Fatal(err)
	}
	if stored, err := c.Flush(); err != nil || stored != 150 {
		t.Fatalf("flush after straddle: stored=%d err=%v", stored, err)
	}
	// A trimmed batch still appends fresh frames, so it is acknowledged as
	// a normal store — only fully-duplicate batches earn CodeDuplicate —
	// but the server counts its trimmed prefix as one more duplicate.
	if c.DupBatches() != 1 {
		t.Fatalf("dup batches = %d, want 1", c.DupBatches())
	}
	if n := srv.metrics.dupBatches.Value(); n != 2 {
		t.Fatalf("aims_dup_batches_total = %d after a duplicate and a straddle, want 2", n)
	}
	r, err := c.Query(wire.Query{Kind: wire.QueryCount, Channel: 0, T0: 0, T1: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	if r.Value != 150 {
		t.Fatalf("count = %v, want 150 (duplicates appended or frames lost)", r.Value)
	}

	// A batch claiming to start beyond the watermark means frames vanished
	// in transit: the server must refuse and tear the session down.
	if err := c.SendBatchAt(1000, frames[:10]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Flush(); err == nil {
		t.Fatal("flush after forward-gap batch succeeded, want protocol error")
	}
	c.Abort()
}

// TestParkResumeAfterAbort kills a session's link without a Close
// handshake; the server must park the live store, hand back the append
// watermark on reconnect, and dedup the client's replay so the stream
// lands exactly once — with no journal configured at all.
func TestParkResumeAfterAbort(t *testing.T) {
	forEachTransport(t, testParkResumeAfterAbort)
}

func testParkResumeAfterAbort(t *testing.T, scheme string) {
	const channels = 2
	srv, addr := startServerOn(t, scheme, Config{Store: testStoreCfg(), RetainTimeout: 5 * time.Second})
	frames := clientFrames(1, 400, channels)
	mins, maxs := ranges(channels)
	h := wire.Hello{Rate: 100, HorizonTicks: 1 << 14, Name: "glove-7", Mins: mins, Maxs: maxs}

	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Hello(h); err != nil {
		t.Fatal(err)
	}
	for at := 0; at < 300; at += 100 {
		if err := c.SendBatch(frames[at : at+100]); err != nil {
			t.Fatal(err)
		}
	}
	if stored, err := c.Flush(); err != nil || stored != 300 {
		t.Fatalf("flush: stored=%d err=%v", stored, err)
	}
	c.Abort() // cable pull: no Close handshake
	waitDetached(t, srv, 1)

	c2, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	w, err := c2.Hello(h)
	if err != nil {
		t.Fatal(err)
	}
	if w.Code != wire.CodeResumed {
		t.Fatalf("welcome code = %v, want resumed", w.Code)
	}
	if w.AckSeq != 300 {
		t.Fatalf("welcome ack seq = %d, want 300", w.AckSeq)
	}
	if n := srv.metrics.resumesTotal.Value(); n != 1 {
		t.Fatalf("aims_session_resumes_total = %d after one resume, want 1", n)
	}
	if parkedCount(srv) != 0 {
		t.Fatalf("detached count = %d after adoption, want 0", parkedCount(srv))
	}

	// At-least-once replay from below the watermark, then fresh frames:
	// the server must drop the replayed prefix and append only the tail.
	if err := c2.SendBatchAt(200, frames[200:300]); err != nil {
		t.Fatal(err)
	}
	if err := c2.SendBatch(frames[300:400]); err != nil { // nextSeq adopted from AckSeq
		t.Fatal(err)
	}
	if _, err := c2.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := c2.Query(wire.Query{Kind: wire.QueryCount, Channel: 0, T0: 0, T1: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	if r.Value != 400 {
		t.Fatalf("count after resume = %v, want 400", r.Value)
	}
	if c2.DupBatches() != 1 {
		t.Fatalf("dup batches = %d, want 1", c2.DupBatches())
	}
	if _, err := c2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestParkExpiry bounds the server-side memory hold: a parked session
// whose device never returns is finalized after RetainTimeout, and a
// later reconnect under the same name starts a fresh session.
func TestParkExpiry(t *testing.T) {
	forEachTransport(t, testParkExpiry)
}

func testParkExpiry(t *testing.T, scheme string) {
	const channels = 2
	srv, addr := startServerOn(t, scheme, Config{Store: testStoreCfg(), RetainTimeout: 50 * time.Millisecond})
	frames := clientFrames(2, 100, channels)
	mins, maxs := ranges(channels)
	h := wire.Hello{Rate: 100, HorizonTicks: 1 << 14, Name: "hmd-1", Mins: mins, Maxs: maxs}

	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Hello(h); err != nil {
		t.Fatal(err)
	}
	if err := c.SendBatch(frames); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	c.Abort()
	// Two-stage wait: observe the park first (a bare wait-for-zero is
	// trivially true before the park lands), then the expiry sweep.
	waitDetached(t, srv, 1)
	waitDetached(t, srv, 0)

	c2, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	w, err := c2.Hello(h)
	if err != nil {
		t.Fatal(err)
	}
	if w.Code != wire.CodeOK || w.AckSeq != 0 {
		t.Fatalf("welcome after expiry: code=%v ackSeq=%d, want fresh session", w.Code, w.AckSeq)
	}
	r, err := c2.Query(wire.Query{Kind: wire.QueryCount, Channel: 0, T0: 0, T1: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	if r.Value != 0 {
		t.Fatalf("fresh session count = %v, want 0", r.Value)
	}
	if _, err := c2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestJournalResumeCarriesWatermark parks a journaled session and checks
// the watermark the device gets back covers everything acknowledged, so a
// full from-zero replay is absorbed without a single duplicate append.
func TestJournalResumeCarriesWatermark(t *testing.T) {
	forEachTransport(t, testJournalResumeCarriesWatermark)
}

func testJournalResumeCarriesWatermark(t *testing.T, scheme string) {
	const channels = 2
	cfg := Config{Store: testStoreCfg(), RetainTimeout: 5 * time.Second}
	cfg.Journal.Dir = t.TempDir()
	srv, addr := startServerOn(t, scheme, cfg)
	frames := clientFrames(3, 300, channels)
	mins, maxs := ranges(channels)
	h := wire.Hello{Rate: 100, HorizonTicks: 1 << 14, Name: "suit-2", Mins: mins, Maxs: maxs}

	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Hello(h); err != nil {
		t.Fatal(err)
	}
	if err := c.SendBatch(frames[:200]); err != nil {
		t.Fatal(err)
	}
	if stored, err := c.Flush(); err != nil || stored != 200 {
		t.Fatalf("flush: stored=%d err=%v", stored, err)
	}
	c.Abort()
	waitDetached(t, srv, 1)

	c2, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	w, err := c2.Hello(h)
	if err != nil {
		t.Fatal(err)
	}
	if w.Code != wire.CodeResumed || w.AckSeq != 200 {
		t.Fatalf("welcome: code=%v ackSeq=%d, want resumed at 200", w.Code, w.AckSeq)
	}
	// Device replays its whole buffer from zero — one batch, fully below
	// the watermark — then streams on.
	if err := c2.SendBatchAt(0, frames[:200]); err != nil {
		t.Fatal(err)
	}
	if err := c2.SendBatch(frames[200:300]); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := c2.Query(wire.Query{Kind: wire.QueryCount, Channel: 0, T0: 0, T1: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	if r.Value != 300 {
		t.Fatalf("count = %v, want 300", r.Value)
	}
	if c2.DupBatches() != 1 {
		t.Fatalf("dup batches = %d, want 1", c2.DupBatches())
	}
	if _, err := c2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPingCountsHeartbeat: an answered ping moves aims_heartbeats_total by
// exactly one.
func TestPingCountsHeartbeat(t *testing.T) {
	srv, addr := startServer(t, Config{Store: testStoreCfg()})
	c := mustHello(t, addr, namedHello("pinger", 2), wire.CodeOK, 0)
	before := srv.metrics.heartbeats.Value()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if d := srv.metrics.heartbeats.Value() - before; d != 1 {
		t.Fatalf("one ping moved aims_heartbeats_total by %d, want 1", d)
	}
}
