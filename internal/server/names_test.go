package server

import (
	"bytes"
	"context"
	"errors"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"aims/internal/journal"
	"aims/internal/transport"
	"aims/internal/wire"
)

// namedHello is the Hello dialRaw sends, for clients that register through
// wire.Client.
func namedHello(name string, channels int) wire.Hello {
	mins, maxs := ranges(channels)
	return wire.Hello{Rate: 100, HorizonTicks: 1 << 14, Name: name, Mins: mins, Maxs: maxs}
}

type welcomed struct {
	c   *wire.Client
	w   wire.Welcome
	err error
}

// helloAsync dials addr and sends h from a goroutine; the Welcome (or the
// failure) arrives on the returned channel.
func helloAsync(t *testing.T, addr string, h wire.Hello) <-chan welcomed {
	t.Helper()
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Abort() })
	c.Timeout = 5 * time.Second
	out := make(chan welcomed, 1)
	go func() {
		w, err := c.Hello(h)
		out <- welcomed{c, w, err}
	}()
	return out
}

// mustHello registers h on a fresh connection and fails the test unless
// the Welcome carries code and ackSeq.
func mustHello(t *testing.T, addr string, h wire.Hello, code wire.Code, ackSeq uint64) *wire.Client {
	t.Helper()
	r := <-helloAsync(t, addr, h)
	if r.w.Code != code || r.w.AckSeq != ackSeq {
		t.Fatalf("welcome code=%v ack=%d err=%v, want %v at %d", r.w.Code, r.w.AckSeq, r.err, code, ackSeq)
	}
	return r.c
}

// sessionDirs lists the journal's session directories.
func sessionDirs(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() {
			out = append(out, e.Name())
		}
	}
	return out
}

// TestResumeDuringDrainAdoptsState: a device whose link dropped while its
// appender was still draining reconnects at once. Its Hello waits for the
// drain and the park, then resumes with every acknowledged frame — rather
// than registering a second session, from zero, in a second directory.
func TestResumeDuringDrainAdoptsState(t *testing.T) {
	cfg, stall := stalledConfig(t, Config{})
	_, addr := startServer(t, cfg)
	rs := dialRaw(t, addr, "X", 2)
	stallOnFirstBatch(t, rs, stall)
	for seq := 16; seq < 64; seq += 16 {
		rs.writeBatch(seq, 16, 2)
	}
	rs.flush()
	for seq := 16; seq < 64; seq += 16 {
		rs.expectAck(seq, wire.CodeOK)
	}
	rs.conn.Close() // cable pull while 48 acknowledged frames wait on the appender

	pending := helloAsync(t, addr, namedHello("X", 2))
	select {
	case r := <-pending:
		t.Fatalf("hello answered (code=%v ack=%d) while the old session was still draining", r.w.Code, r.w.AckSeq)
	case <-time.After(100 * time.Millisecond):
	}
	stall.resume()
	r := <-pending
	if r.err != nil || r.w.Code != wire.CodeResumed || r.w.AckSeq != 64 {
		t.Fatalf("welcome code=%v ack=%d err=%v, want resumed at 64", r.w.Code, r.w.AckSeq, r.err)
	}
	if q, err := r.c.Query(wire.Query{Kind: wire.QueryCount, T0: 0, T1: 1e6}); err != nil || q.Value != 64 {
		t.Fatalf("count = %v err=%v, want 64", q.Value, err)
	}
	if dirs := sessionDirs(t, cfg.Journal.Dir); len(dirs) != 1 {
		t.Fatalf("session directories %v, want just X", dirs)
	}
}

// TestTakeoverOfLiveSession: a second Hello under a connected session's
// name and shape takes the session over. The first link is closed without
// an eviction, and the newcomer resumes at the full watermark on the same
// store: one session, an exact count.
func TestTakeoverOfLiveSession(t *testing.T) {
	forEachTransport(t, func(t *testing.T, scheme string) { testTakeover(t, scheme, false) })
}

// TestTakeoverOfLiveDurableSession is the takeover on a journaling server:
// the name keeps one directory (no X~2), and a restart over it recovers
// every frame.
func TestTakeoverOfLiveDurableSession(t *testing.T) {
	forEachTransport(t, func(t *testing.T, scheme string) { testTakeover(t, scheme, true) })
}

func testTakeover(t *testing.T, scheme string, durable bool) {
	cfg := Config{Store: testStoreCfg()}
	if durable {
		cfg.Journal = journal.Config{Dir: t.TempDir()}
	}
	srv, addr := startServerOn(t, scheme, cfg)
	h := namedHello("X", 2)
	frames := clientFrames(4, 400, 2)
	c1 := mustHello(t, addr, h, wire.CodeOK, 0)
	if err := c1.SendBatch(frames[:300]); err != nil {
		t.Fatal(err)
	}
	if stored, err := c1.Flush(); err != nil || stored != 300 {
		t.Fatalf("flush: stored=%d err=%v", stored, err)
	}

	c2 := mustHello(t, addr, h, wire.CodeResumed, 300)
	var em wire.ErrMsg
	if err := c1.Ping(); err == nil || errors.As(err, &em) {
		t.Fatalf("first link after the takeover: ping err=%v, want a closed link and no server error", err)
	}
	if n := srv.metrics.evictions.Value(); n != 0 {
		t.Fatalf("takeover counted %d evictions", n)
	}
	if n := liveCount(srv); n != 1 {
		t.Fatalf("sessions = %d after the takeover, want 1", n)
	}
	if err := c2.SendBatch(frames[300:]); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Flush(); err != nil {
		t.Fatal(err)
	}
	if q, err := c2.Query(wire.Query{Kind: wire.QueryCount, T0: 0, T1: 1e6}); err != nil || q.Value != 400 {
		t.Fatalf("count = %v err=%v, want 400", q.Value, err)
	}
	if _, err := c2.Close(); err != nil {
		t.Fatal(err)
	}
	if !durable {
		return
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if dirs := sessionDirs(t, cfg.Journal.Dir); len(dirs) != 1 || dirs[0] != "X" {
		t.Fatalf("session directories %v, want [X]", dirs)
	}
	srv2 := New(cfg)
	if n, err := srv2.RecoverSessions(); err != nil || n != 1 {
		t.Fatalf("recovered %d sessions, err=%v; want 1", n, err)
	}
	addr2, err := srv2.Start(scheme + "://127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv2.Shutdown(ctx)
	})
	c3 := mustHello(t, addr2.String(), h, wire.CodeResumed, 400)
	if q, err := c3.Query(wire.Query{Kind: wire.QueryCount, T0: 0, T1: 1e6}); err != nil || q.Value != 400 {
		t.Fatalf("count after restart = %v err=%v, want 400", q.Value, err)
	}
}

// TestDifferentShapeHelloRefused: while a name is held — live or parked —
// a Hello of another shape is refused with CodeDuplicate. It creates no
// session and no directory, and the owner streams on undisturbed.
func TestDifferentShapeHelloRefused(t *testing.T) {
	cfg := Config{Store: testStoreCfg(), Journal: journal.Config{Dir: t.TempDir()}}
	srv, addr := startServer(t, cfg)
	h := namedHello("X", 2)
	wider := namedHello("X", 3)
	slower := h
	slower.Rate = 50
	frames := clientFrames(5, 200, 2)

	c1 := mustHello(t, addr, h, wire.CodeOK, 0)
	if err := c1.SendBatch(frames[:100]); err != nil {
		t.Fatal(err)
	}
	mustHello(t, addr, wider, wire.CodeDuplicate, 0)
	mustHello(t, addr, slower, wire.CodeDuplicate, 0)
	if err := c1.SendBatch(frames[100:]); err != nil {
		t.Fatal(err)
	}
	if stored, err := c1.Flush(); err != nil || stored != 200 {
		t.Fatalf("owner's flush after the refusals: stored=%d err=%v", stored, err)
	}
	if n := liveCount(srv); n != 1 {
		t.Fatalf("sessions = %d, want 1", n)
	}

	c1.Abort()
	waitDetached(t, srv, 1)
	mustHello(t, addr, wider, wire.CodeDuplicate, 0)
	if dirs := sessionDirs(t, cfg.Journal.Dir); len(dirs) != 1 {
		t.Fatalf("session directories %v, want just X", dirs)
	}
	mustHello(t, addr, h, wire.CodeResumed, 200)
}

// TestShutdownEndsTakeoverWait: a takeover waiting on a drain that cannot
// finish is answered CodeShuttingDown as soon as Shutdown begins, and once
// the drain completes every goroutine the sessions held is gone.
func TestShutdownEndsTakeoverWait(t *testing.T) {
	base := runtime.NumGoroutine()
	waitFor(func() bool {
		time.Sleep(10 * time.Millisecond)
		prev := base
		base = runtime.NumGoroutine()
		return base == prev
	})
	cfg, stall := stalledConfig(t, Config{})
	srv, addr := startServer(t, cfg)
	rs := dialRaw(t, addr, "X", 2)
	stallOnFirstBatch(t, rs, stall)

	pending := helloAsync(t, addr, namedHello("X", 2))
	select {
	case r := <-pending:
		t.Fatalf("hello answered (code=%v) while the old session was still draining", r.w.Code)
	case <-time.After(100 * time.Millisecond):
	}
	shut := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shut <- srv.Shutdown(ctx)
	}()
	select {
	case r := <-pending:
		if r.w.Code != wire.CodeShuttingDown {
			t.Fatalf("welcome code=%v err=%v, want shutting-down", r.w.Code, r.err)
		}
		r.c.Abort()
	case <-time.After(2 * time.Second):
		t.Fatal("the waiting takeover outlived the start of Shutdown")
	}
	stall.resume()
	if err := <-shut; err != nil {
		t.Fatal(err)
	}
	rs.conn.Close()
	if !waitFor(func() bool { return runtime.NumGoroutine() <= base }) {
		t.Fatalf("%d goroutines above baseline after shutdown", runtime.NumGoroutine()-base)
	}
}

// TestExpiredSessionLeavesBeforeItsNameMovesOn: a durable session writes
// its final snapshot as it leaves, before it parks, so a Hello arriving
// meanwhile waits and then resumes it in its one directory. Once the
// parked session's retention expires, with no disk work left, the next
// Hello registers fresh and the expired directory is moved aside whole
// rather than forked beside.
func TestExpiredSessionLeavesBeforeItsNameMovesOn(t *testing.T) {
	cfg, stall := stalledConfig(t, Config{RetainTimeout: 50 * time.Millisecond})
	srv, addr := startServer(t, cfg)
	rs := dialRaw(t, addr, "X", 2)
	rs.writeBatch(0, 10, 2) // under SnapshotFrames: only the final snapshot stalls
	rs.flush()
	rs.expectAck(0, wire.CodeOK)
	stall.armed.Store(true)
	rs.conn.Close()
	select {
	case <-stall.entered: // leaving, and writing its final snapshot
	case <-time.After(2 * time.Second):
		t.Fatal("the leaving session never started its final snapshot")
	}
	if n := parkedCount(srv); n != 0 {
		t.Fatalf("detached = %d while the session leaves, want 0", n)
	}

	pending := helloAsync(t, addr, namedHello("X", 2))
	select {
	case r := <-pending:
		t.Fatalf("hello answered (code=%v ack=%d) while the leaving session was still writing its snapshot", r.w.Code, r.w.AckSeq)
	case <-time.After(100 * time.Millisecond):
	}
	stall.resume()
	r := <-pending
	if r.err != nil || r.w.Code != wire.CodeResumed || r.w.AckSeq != 10 {
		t.Fatalf("welcome code=%v ack=%d err=%v, want resumed at 10", r.w.Code, r.w.AckSeq, r.err)
	}
	if dirs := sessionDirs(t, cfg.Journal.Dir); len(dirs) != 1 || dirs[0] != "X" {
		t.Fatalf("session directories %v, want [X]", dirs)
	}

	r.c.Abort()
	if !waitFor(func() bool { // parked, expired and out of the table
		srv.namesMu.Lock()
		defer srv.namesMu.Unlock()
		return srv.names["X"] == nil
	}) {
		t.Fatal("the parked session never expired")
	}
	before := treeBytes(t, filepath.Join(cfg.Journal.Dir, "X"))
	mustHello(t, addr, namedHello("X", 2), wire.CodeOK, 0)
	if dirs := sessionDirs(t, cfg.Journal.Dir); len(dirs) != 2 || dirs[0] != "X" || dirs[1] != "X.stale1" {
		t.Fatalf("session directories %v, want [X X.stale1]", dirs)
	}
	assertTree(t, filepath.Join(cfg.Journal.Dir, "X.stale1"), before)
}

// TestRetriedCloseResumesClosedSession: a device sends Close and loses the
// link before it reads the CloseAck. The closed session parks like a
// dropped one, so the device's retry resumes it at the full watermark — it
// does not register fresh and move the closed directory aside — and the
// retried Close accounts for every frame of the session.
func TestRetriedCloseResumesClosedSession(t *testing.T) {
	cfg := durableConfig(t.TempDir())
	srv, addr := startServer(t, cfg)
	rs := dialRaw(t, addr, "X", 2)
	rs.writeBatch(0, 20, 2)
	rs.flush()
	rs.expectAck(0, wire.CodeOK)
	rs.write(wire.MsgClose, nil)
	rs.flush()
	rs.conn.Close() // the CloseAck is never read
	if !waitFor(func() bool { return liveCount(srv) == 0 }) {
		t.Fatal("the closed session never left")
	}

	c := mustHello(t, addr, namedHello("X", 2), wire.CodeResumed, 20)
	if q, err := c.Query(wire.Query{Kind: wire.QueryCount, T0: 0, T1: 1e6}); err != nil || q.Value != 20 {
		t.Fatalf("count = %v err=%v, want 20", q.Value, err)
	}
	if ack, err := c.Close(); err != nil || ack.Stored != 20 {
		t.Fatalf("retried close ack %+v err=%v, want stored 20", ack, err)
	}
	if dirs := sessionDirs(t, cfg.Journal.Dir); len(dirs) != 1 || dirs[0] != "X" {
		t.Fatalf("session directories %v, want [X]", dirs)
	}
}

// closeAckCutter dials TCP and cuts the first link that carries a Close as
// soon as the Close is written, so the device never reads that CloseAck.
type closeAckCutter struct{ cut atomic.Bool }

func (d *closeAckCutter) DialContext(ctx context.Context, addr string) (net.Conn, error) {
	conn, err := transport.Net.DialContext(ctx, addr)
	if err != nil {
		return nil, err
	}
	return &cutAfterClose{Conn: conn, d: d}, nil
}

type cutAfterClose struct {
	net.Conn
	d *closeAckCutter
}

func (c *cutAfterClose) Write(p []byte) (int, error) {
	var closeMsg bytes.Buffer
	wire.WriteMessage(&closeMsg, wire.MsgClose, nil)
	n, err := c.Conn.Write(p)
	if err == nil && bytes.HasSuffix(p, closeMsg.Bytes()) && c.d.cut.CompareAndSwap(false, true) {
		c.Conn.Close()
	}
	return n, err
}

// TestResilientCloseSurvivesLostCloseAck: a ResilientClient whose stream
// outgrew its replay ring loses its first CloseAck. Its retry resumes the
// closed session with nothing to replay and closes again, and the session
// keeps every frame under its one directory.
func TestResilientCloseSurvivesLostCloseAck(t *testing.T) {
	cfg := durableConfig(t.TempDir())
	_, addr := startServer(t, cfg)
	cutter := &closeAckCutter{}
	rc, _, err := wire.DialResilient(wire.ResilientConfig{
		Addr:         addr,
		Dialer:       cutter,
		Timeout:      2 * time.Second,
		BaseBackoff:  5 * time.Millisecond,
		MaxBackoff:   50 * time.Millisecond,
		ReplayFrames: 64,
		Seed:         1,
	}, namedHello("X", 2))
	if err != nil {
		t.Fatal(err)
	}
	frames := clientFrames(0, 1000, 2)
	for at := 0; at < len(frames); at += 100 {
		if err := rc.SendBatch(frames[at : at+100]); err != nil {
			t.Fatalf("send at %d: %v", at, err)
		}
	}
	ack, err := rc.Close()
	if err != nil {
		t.Fatalf("close: %v", err)
	}
	if !cutter.cut.Load() || rc.Reconnects() != 1 || ack.Stored != 1000 {
		t.Fatalf("cut=%v reconnects=%d ack %+v, want one cut CloseAck, one reconnect, stored 1000",
			cutter.cut.Load(), rc.Reconnects(), ack)
	}

	c := mustHello(t, addr, namedHello("X", 2), wire.CodeResumed, 1000)
	if q, err := c.Query(wire.Query{Kind: wire.QueryCount, T0: 0, T1: 1e6}); err != nil || q.Value != 1000 {
		t.Fatalf("count = %v err=%v, want 1000", q.Value, err)
	}
	if dirs := sessionDirs(t, cfg.Journal.Dir); len(dirs) != 1 || dirs[0] != "X" {
		t.Fatalf("session directories %v, want [X]", dirs)
	}
}

// TestCloseAckCountsFramesBeforeResume: a session that resumed after a
// dropped link reports in its CloseAck every frame its store holds, not
// only those the last link carried. Its FlushAck still counts this link's.
func TestCloseAckCountsFramesBeforeResume(t *testing.T) {
	srv, addr := startServer(t, Config{Store: testStoreCfg()})
	rs := dialRaw(t, addr, "X", 2)
	rs.writeBatch(0, 20, 2)
	rs.flush()
	rs.expectAck(0, wire.CodeOK)
	rs.conn.Close()
	waitDetached(t, srv, 1)

	c := mustHello(t, addr, namedHello("X", 2), wire.CodeResumed, 20)
	if err := c.SendBatch(clientFrames(0, 30, 2)[20:]); err != nil {
		t.Fatal(err)
	}
	if stored, err := c.Flush(); err != nil || stored != 10 {
		t.Fatalf("flush stored=%d err=%v, want this link's 10", stored, err)
	}
	if ack, err := c.Close(); err != nil || ack.Stored != 30 {
		t.Fatalf("close ack %+v err=%v, want stored 30", ack, err)
	}
}
