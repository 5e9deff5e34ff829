package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"aims/internal/core"
	"aims/internal/stream"
	"aims/internal/wire"
)

func testStoreCfg() core.LiveStoreConfig {
	return core.LiveStoreConfig{TimeBuckets: 64, ValueBins: 32}
}

// liveCount and parkedCount read the session table's counts.
func liveCount(srv *Server) int   { live, _ := srv.tableCounts(); return live }
func parkedCount(srv *Server) int { _, parked := srv.tableCounts(); return parked }

func startServer(t *testing.T, cfg Config) (*Server, string) {
	return startServerOn(t, "tcp", cfg)
}

// transports lists the endpoint schemes transport-parameterized tests run
// over; the wire protocol must behave identically on each.
var transports = []string{"tcp", "ws"}

// forEachTransport runs fn as one subtest per transport scheme.
func forEachTransport(t *testing.T, fn func(t *testing.T, scheme string)) {
	for _, tr := range transports {
		t.Run(tr, func(t *testing.T) { fn(t, tr) })
	}
}

// startServerOn starts a loopback server on the given transport scheme
// and returns it plus a directly dialable endpoint (scheme included for
// non-TCP transports).
func startServerOn(t *testing.T, scheme string, cfg Config) (*Server, string) {
	t.Helper()
	srv := New(cfg)
	addr, err := srv.Start(scheme + "://127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv, addr.String()
}

func clientFrames(client, n, channels int) []stream.Frame {
	out := make([]stream.Frame, n)
	for i := range out {
		vals := make([]float64, channels)
		for c := range vals {
			vals[c] = math.Sin(float64(i)*0.1+float64(client)) * 5
		}
		out[i] = stream.Frame{T: float64(i) / 100, Values: vals}
	}
	return out
}

func ranges(channels int) (mins, maxs []float64) {
	mins = make([]float64, channels)
	maxs = make([]float64, channels)
	for c := range mins {
		mins[c], maxs[c] = -5, 5
	}
	return mins, maxs
}

// TestServerEightConcurrentClients is the integration test of the middle
// tier: 8 concurrent sessions ingesting and querying on loopback, exact
// results checked against locally built mirrors of each session's live
// store, then a clean drain on shutdown.
func TestServerEightConcurrentClients(t *testing.T) {
	const (
		clients    = 8
		frames     = 2400
		channels   = 6
		batchSize  = 100
		rate       = 100.0
		queryEvery = 6 // batches
	)
	srv, addr := startServer(t, Config{Store: testStoreCfg()})

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			errs <- runClient(cl, addr, frames, channels, batchSize, rate, queryEvery)
		}(cl)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// CloseAck goes out just before the handler unregisters, so give the
	// session accounting a moment to settle.
	settle := time.Now().Add(2 * time.Second)
	for liveCount(srv) > 0 && time.Now().Before(settle) {
		time.Sleep(2 * time.Millisecond)
	}
	m := srv.metrics
	if got := m.framesIngested.Value(); got != clients*frames {
		t.Fatalf("server ingested %d frames, want %d", got, clients*frames)
	}
	if m.batchesShed.Value() != 0 || m.framesShed.Value() != 0 {
		t.Fatalf("unexpected shedding: %s", srv.Metrics())
	}
	if m.sessionsTotal.Value() != clients || liveCount(srv) != 0 {
		t.Fatalf("session accounting: %s", srv.Metrics())
	}
	if m.queryLatency.Count() == 0 {
		t.Fatal("no queries recorded")
	}

	// Graceful shutdown with nothing in flight returns promptly.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func runClient(cl int, addr string, frames, channels, batchSize int, rate float64, queryEvery int) error {
	mins, maxs := ranges(channels)
	mirror, err := core.NewLiveStore(mins, maxs, core.LiveStoreConfig{
		TimeBuckets: 64, ValueBins: 32, Rate: rate, HorizonTicks: frames,
	})
	if err != nil {
		return err
	}
	all := clientFrames(cl, frames, channels)

	c, err := wire.Dial(addr)
	if err != nil {
		return err
	}
	c.Window = 3
	if _, err := c.Hello(wire.Hello{
		Rate: rate, HorizonTicks: uint32(frames), Name: fmt.Sprintf("itest-%d", cl),
		Mins: mins, Maxs: maxs,
	}); err != nil {
		return err
	}

	batches := 0
	for at := 0; at < frames; at += batchSize {
		end := at + batchSize
		if end > frames {
			end = frames
		}
		if err := c.SendBatch(all[at:end]); err != nil {
			return fmt.Errorf("client %d batch at %d: %w", cl, at, err)
		}
		if _, err := mirror.AppendFrames(all[at:end]); err != nil {
			return err
		}
		batches++
		if batches%queryEvery != 0 {
			continue
		}
		// Barrier, then exact aggregates must match the local mirror.
		stored, err := c.Flush()
		if err != nil {
			return fmt.Errorf("client %d flush: %w", cl, err)
		}
		if stored != uint64(end) {
			return fmt.Errorf("client %d: flush reports %d stored, want %d", cl, stored, end)
		}
		tEnd := float64(end) / rate
		for _, win := range [][2]float64{{0, tEnd}, {tEnd / 4, tEnd / 2}} {
			ch := uint16((batches / queryEvery) % channels)
			got, err := c.Query(wire.Query{Kind: wire.QueryCount, Channel: ch, T0: win[0], T1: win[1]})
			if err != nil {
				return err
			}
			want, err := mirror.CountSamples(int(ch), win[0], win[1])
			if err != nil {
				return err
			}
			if math.Abs(got.Value-want) > 1e-9 {
				return fmt.Errorf("client %d: count[%v] = %v, mirror %v", cl, win, got.Value, want)
			}
			avg, err := c.Query(wire.Query{Kind: wire.QueryAverage, Channel: ch, T0: win[0], T1: win[1]})
			if err != nil {
				return err
			}
			wantAvg, wantOK, err := mirror.AverageValue(int(ch), win[0], win[1])
			if err != nil {
				return err
			}
			if avg.OK != wantOK || (wantOK && math.Abs(avg.Value-wantAvg) > 1e-9) {
				return fmt.Errorf("client %d: avg[%v] = %v/%v, mirror %v/%v", cl, win, avg.Value, avg.OK, wantAvg, wantOK)
			}
		}
	}

	// Approximate + progressive answers carry sound guaranteed bounds.
	if _, err := c.Flush(); err != nil {
		return err
	}
	exact, err := mirror.CountSamples(0, 0, 3)
	if err != nil {
		return err
	}
	approx, err := c.Query(wire.Query{Kind: wire.QueryApproxCount, Channel: 0, T0: 0, T1: 3, Arg: 12})
	if err != nil {
		return err
	}
	if math.Abs(approx.Value-exact) > approx.Bound+1e-6 {
		return fmt.Errorf("client %d: approx %v ± %v excludes exact %v", cl, approx.Value, approx.Bound, exact)
	}
	steps, err := c.QueryProgressive(wire.Query{Kind: wire.QueryProgressiveCount, Channel: 0, T0: 0, T1: 3, Arg: 6})
	if err != nil {
		return err
	}
	final := steps[len(steps)-1]
	if !final.Final || math.Abs(final.Value-exact) > 1e-6*math.Max(1, exact) {
		return fmt.Errorf("client %d: progressive final %v != exact %v", cl, final.Value, exact)
	}
	for _, st := range steps {
		if math.Abs(st.Value-exact) > st.Bound+1e-6 {
			return fmt.Errorf("client %d: progressive step %d outside bound", cl, st.Coefficients)
		}
	}

	ack, err := c.Close()
	if err != nil {
		return err
	}
	if ack.Stored != uint64(frames) || ack.Shed != 0 {
		return fmt.Errorf("client %d: close ack %+v, want %d stored", cl, ack, frames)
	}
	return nil
}

// TestServerShedPolicy forces deterministic shedding: batches larger than
// the whole queue can never fit, so every one is dropped with an explicit
// CodeShed ack and accounted for.
func TestServerShedPolicy(t *testing.T) {
	srv, addr := startServer(t, Config{
		Store:       testStoreCfg(),
		Policy:      PolicyShed,
		QueueFrames: 16,
	})
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	mins, maxs := ranges(2)
	if _, err := c.Hello(wire.Hello{Rate: 100, Mins: mins, Maxs: maxs}); err != nil {
		t.Fatal(err)
	}
	all := clientFrames(0, 96, 2)
	for at := 0; at < 96; at += 32 {
		if err := c.SendBatch(all[at : at+32]); err != nil {
			t.Fatal(err)
		}
	}
	ack, err := c.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ack.Stored != 0 || ack.Shed != 96 {
		t.Fatalf("close ack %+v, want all 96 frames shed", ack)
	}
	if c.ShedBatches() != 3 {
		t.Fatalf("client counted %d shed batches, want 3", c.ShedBatches())
	}
	if srv.metrics.batchesShed.Value() != 3 || srv.metrics.framesShed.Value() != 96 {
		t.Fatalf("server shed accounting: %s", srv.Metrics())
	}
}

// TestServerIdleEviction: a silent session is evicted with an explicit
// idle-evicted error.
func TestServerIdleEviction(t *testing.T) {
	srv, addr := startServer(t, Config{Store: testStoreCfg(), IdleTimeout: 100 * time.Millisecond})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	mins, maxs := ranges(1)
	p, _ := wire.Hello{Rate: 100, Mins: mins, Maxs: maxs}.Encode()
	if err := wire.WriteMessage(conn, wire.MsgHello, p); err != nil {
		t.Fatal(err)
	}
	typ, _, err := wire.ReadMessage(conn)
	if err != nil || typ != wire.MsgWelcome {
		t.Fatalf("welcome: type=%d err=%v", typ, err)
	}
	// Stay silent past the idle timeout.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	typ, payload, err := wire.ReadMessage(conn)
	if err != nil {
		t.Fatalf("expected an eviction notice, got %v", err)
	}
	if typ != wire.MsgError {
		t.Fatalf("expected error message, got type %d", typ)
	}
	em, err := wire.DecodeErr(payload)
	if err != nil || em.Code != wire.CodeIdleEvicted {
		t.Fatalf("eviction code: %+v %v", em, err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for srv.metrics.evictions.Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := srv.metrics.evictions.Value(); got != 1 {
		t.Fatalf("evictions = %d", got)
	}
}

// TestServerHelloStallClosed: a TCP client that connects and never
// completes a Hello — silent, or stalled inside a message header — is
// hung up on once IdleTimeout passes, is never registered, and leaves no
// session goroutine behind.
func TestServerHelloStallClosed(t *testing.T) {
	const idle = 150 * time.Millisecond
	srv, addr := startServer(t, Config{Store: testStoreCfg(), IdleTimeout: idle})
	base := runtime.NumGoroutine()
	waitFor(func() bool {
		time.Sleep(10 * time.Millisecond)
		prev := base
		base = runtime.NumGoroutine()
		return base == prev
	})
	for _, sent := range [][]byte{nil, {0x20, 0x00, 0x00}} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		begin := time.Now()
		if _, err := conn.Write(sent); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		n, err := conn.Read(make([]byte, 1))
		waited := time.Since(begin)
		conn.Close()
		if n != 0 || !errors.Is(err, io.EOF) {
			t.Fatalf("sent %x: read %d bytes, %v; want the server to hang up", sent, n, err)
		}
		if waited < idle*9/10 {
			t.Fatalf("sent %x: hung up after %v, before the %v idle timeout", sent, waited, idle)
		}
		if got := liveCount(srv); got != 0 {
			t.Fatalf("sent %x: %d sessions registered", sent, got)
		}
	}
	if !waitFor(func() bool { return runtime.NumGoroutine() == base }) {
		t.Fatalf("%d goroutines above baseline after the stalled handshakes closed", runtime.NumGoroutine()-base)
	}
}

// TestServerRejectsBadVersion: a wrong protocol version gets an explicit
// wire error, not a silent hangup.
func TestServerRejectsBadVersion(t *testing.T) {
	_, addr := startServer(t, Config{Store: testStoreCfg()})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	mins, maxs := ranges(1)
	p, _ := wire.Hello{Rate: 100, Mins: mins, Maxs: maxs}.Encode()
	p[4] = wire.Version + 9 // corrupt the version byte
	if err := wire.WriteMessage(conn, wire.MsgHello, p); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	typ, payload, err := wire.ReadMessage(conn)
	if err != nil || typ != wire.MsgError {
		t.Fatalf("expected wire error, got type=%d err=%v", typ, err)
	}
	em, _ := wire.DecodeErr(payload)
	if em.Code != wire.CodeBadVersion {
		t.Fatalf("code = %v", em.Code)
	}
}

// TestQueryPastHorizonOnLastChannel: an exact query whose range starts
// past the session horizon is a legal request from any client. It used to
// index past the last channel's rows and take the whole server down; it
// must be answered (the final bucket holds everything past the horizon)
// and the session must stay usable.
func TestQueryPastHorizonOnLastChannel(t *testing.T) {
	const channels = 2
	_, addr := startServer(t, Config{Store: testStoreCfg()})
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Abort()
	mins, maxs := ranges(channels)
	if _, err := c.Hello(wire.Hello{Rate: 100, HorizonTicks: 256, Mins: mins, Maxs: maxs}); err != nil {
		t.Fatal(err)
	}
	if err := c.SendBatch(clientFrames(0, 300, channels)); err != nil { // 44 frames past the horizon
		t.Fatal(err)
	}
	if _, err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, kind := range []wire.QueryKind{wire.QueryCount, wire.QueryAverage, wire.QueryVariance} {
		r, err := c.Query(wire.Query{Kind: kind, Channel: channels - 1, T0: 1e6, T1: 2e6})
		if err != nil {
			t.Fatalf("kind %d past the horizon: %v", kind, err)
		}
		if !r.Final || r.Code != wire.CodeOK {
			t.Fatalf("kind %d past the horizon: %+v", kind, r)
		}
		if kind == wire.QueryCount && r.Value != 300-252 { // bucket 63 of 64 starts at tick 252
			t.Fatalf("count past the horizon = %v, want the final bucket's %d frames", r.Value, 300-252)
		}
	}
	if r, err := c.Query(wire.Query{Kind: wire.QueryCount, Channel: 0, T0: 0, T1: 1e6}); err != nil || r.Value != 300 {
		t.Fatalf("session unusable after the out-of-horizon query: %+v %v", r, err)
	}
}

// TestServerShutdownDrainsInFlight: frames acknowledged before shutdown
// are all stored; the lingering client is told the server is going away.
func TestServerShutdownDrains(t *testing.T) {
	srv, addr := startServer(t, Config{Store: testStoreCfg(), IdleTimeout: 5 * time.Second})
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	mins, maxs := ranges(3)
	if _, err := c.Hello(wire.Hello{Rate: 100, Mins: mins, Maxs: maxs}); err != nil {
		t.Fatal(err)
	}
	all := clientFrames(1, 1000, 3)
	for at := 0; at < 1000; at += 200 {
		if err := c.SendBatch(all[at : at+200]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Flush(); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if got := srv.metrics.framesIngested.Value(); got != 1000 {
		t.Fatalf("drained %d frames, want 1000", got)
	}
	if liveCount(srv) != 0 {
		t.Fatalf("sessions still active: %s", srv.Metrics())
	}
	// The client observes the shutdown as a wire error or a closed conn.
	_, err = c.Query(wire.Query{Kind: wire.QueryCount, Channel: 0, T0: 0, T1: 1})
	if err == nil {
		t.Fatal("query succeeded after shutdown")
	}
	var em wire.ErrMsg
	if errors.As(err, &em) && em.Code != wire.CodeShuttingDown {
		t.Fatalf("unexpected wire error: %v", em)
	}
}

// TestServerSecondListenerAfterShutdownFails documents that a Server is
// one-shot.
func TestServerServeAfterShutdown(t *testing.T) {
	srv := New(Config{Store: testStoreCfg()})
	if _, err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(ln); err == nil {
		t.Fatal("Serve after Shutdown succeeded")
	}
}

// TestRegistrySharding unit-tests the session table's live map directly
// (once split into shards, now one map under one lock): every registration
// is counted and walked exactly once, a second leave of the same session
// changes nothing, and concurrent register/leave churn under -race leaves
// the count where it was.
func TestRegistrySharding(t *testing.T) {
	srv := New(Config{Store: testStoreCfg()})
	const n = 500
	for i := 0; i < n; i++ {
		srv.register(&session{class: "vr"})
	}
	if got := liveCount(srv); got != n {
		t.Fatalf("live = %d, want %d", got, n)
	}
	seen := make(map[uint64]int, n)
	for _, sess := range srv.liveSessions() {
		seen[sess.id]++
	}
	for id := uint64(1); id <= n; id++ {
		if seen[id] != 1 {
			t.Fatalf("session %d walked %d times, want once", id, seen[id])
		}
	}
	if got := srv.DeviceClasses()["vr"]; got != n {
		t.Fatalf("device classes count %d, want %d", got, n)
	}
	var seventh *session
	for _, sess := range srv.liveSessions() {
		if sess.id == 7 {
			seventh = sess
		}
	}
	srv.leave(seventh)
	srv.leave(seventh)
	if got := liveCount(srv); got != n-1 {
		t.Fatalf("live after leaving twice = %d, want %d", got, n-1)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sess := &session{}
				srv.register(sess)
				liveCount(srv)
				srv.leave(sess)
			}
		}()
	}
	wg.Wait()
	if got := liveCount(srv); got != n-1 {
		t.Fatalf("live after churn = %d, want %d", got, n-1)
	}
	if got := parkedCount(srv); got != 0 {
		t.Fatalf("anonymous sessions parked %d names", got)
	}
}

// TestQueueDepthGauge checks the O(1) metrics gauge: after a flush
// barrier everything enqueued has been drained, so the gauge must read
// zero — and it must never have required walking sessions to compute.
func TestQueueDepthGauge(t *testing.T) {
	srv, addr := startServer(t, Config{Store: testStoreCfg()})
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mins, maxs := ranges(2)
	if _, err := c.Hello(wire.Hello{Rate: 100, HorizonTicks: 1000, Mins: mins, Maxs: maxs}); err != nil {
		t.Fatal(err)
	}
	all := clientFrames(0, 400, 2)
	for off := 0; off < len(all); off += 100 {
		if err := c.SendBatch(all[off : off+100]); err != nil {
			t.Fatal(err)
		}
	}
	stored, err := c.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if stored != 400 {
		t.Fatalf("flush barrier stored = %d, want 400", stored)
	}
	if d := srv.metrics.queueDepth.Value(); d != 0 {
		t.Fatalf("queue depth after flush barrier = %d, want 0", d)
	}
}
