package server

import (
	"bufio"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"aims/internal/journal"
	"aims/internal/wire"
)

// rawSession is a registered session driven message by message off a bare
// socket, so a test can pipeline without a client library reordering its
// reads and writes (and without client-side goroutines in the process).
type rawSession struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
}

func dialRaw(t *testing.T, addr, name string, channels int) *rawSession {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	rs := &rawSession{t: t, conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}
	mins, maxs := ranges(channels)
	p, err := wire.Hello{Rate: 100, HorizonTicks: 1 << 14, Name: name, Mins: mins, Maxs: maxs}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	rs.write(wire.MsgHello, p)
	rs.flush()
	rs.expect(wire.MsgWelcome)
	return rs
}

func (rs *rawSession) write(typ byte, payload []byte) {
	rs.t.Helper()
	if err := wire.WriteMessage(rs.bw, typ, payload); err != nil {
		rs.t.Fatal(err)
	}
}

func (rs *rawSession) flush() {
	rs.t.Helper()
	if err := rs.bw.Flush(); err != nil {
		rs.t.Fatal(err)
	}
}

// writeBatch buffers frames [seq, seq+n) of the session's stream.
func (rs *rawSession) writeBatch(seq, n, channels int) {
	rs.t.Helper()
	p, err := wire.EncodeBatch(uint64(seq), clientFrames(0, seq+n, channels)[seq:], channels)
	if err != nil {
		rs.t.Fatal(err)
	}
	rs.write(wire.MsgBatch, p)
}

func (rs *rawSession) expect(want byte) []byte {
	rs.t.Helper()
	rs.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	typ, payload, err := wire.ReadMessage(rs.br)
	if err != nil {
		rs.t.Fatalf("waiting for msg %d: %v", want, err)
	}
	if typ == wire.MsgError {
		em, _ := wire.DecodeErr(payload)
		rs.t.Fatalf("server error instead of msg %d: %v", want, em)
	}
	if typ != want {
		rs.t.Fatalf("got msg type %d, want %d", typ, want)
	}
	return payload
}

func (rs *rawSession) expectAck(seq int, code wire.Code) {
	rs.t.Helper()
	ack, err := wire.DecodeBatchAck(rs.expect(wire.MsgBatchAck))
	if err != nil || ack.Seq != uint64(seq) || ack.Code != code {
		rs.t.Fatalf("batch ack %+v err=%v, want seq %d code %v", ack, err, seq, code)
	}
}

func (rs *rawSession) expectFlushAck() uint64 {
	rs.t.Helper()
	fa, err := wire.DecodeFlushAck(rs.expect(wire.MsgFlushAck))
	if err != nil {
		rs.t.Fatal(err)
	}
	return fa.Stored
}

// waitFor polls cond until it holds or two seconds pass.
func waitFor(cond func() bool) bool {
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// TestIdleSessionHoldsTwoGoroutines pins the cost of a connected device
// that is doing nothing: its reader parked in the socket read and its
// appender parked on the empty queue — no relay goroutine, no timer — and
// both gone once the device disconnects.
func TestIdleSessionHoldsTwoGoroutines(t *testing.T) {
	const n = 16
	srv, addr := startServer(t, Config{Store: testStoreCfg()})
	// Let goroutines earlier tests left winding down finish first.
	base := runtime.NumGoroutine()
	waitFor(func() bool {
		time.Sleep(10 * time.Millisecond)
		prev := base
		base = runtime.NumGoroutine()
		return base == prev
	})

	sessions := make([]*rawSession, n)
	for i := range sessions {
		sessions[i] = dialRaw(t, addr, "", 2) // anonymous: nothing parks on disconnect
	}
	if !waitFor(func() bool { return runtime.NumGoroutine() == base+2*n }) {
		t.Fatalf("%d idle sessions hold %d goroutines, want exactly %d",
			n, runtime.NumGoroutine()-base, 2*n)
	}
	if got := srv.SessionCount(); got != n {
		t.Fatalf("sessions = %d, want %d", got, n)
	}
	for _, rs := range sessions {
		rs.conn.Close()
	}
	if !waitFor(func() bool { return runtime.NumGoroutine() == base }) {
		t.Fatalf("%d goroutines above baseline after every session closed", runtime.NumGoroutine()-base)
	}
}

// TestBlockPolicyAdmitsOversizedBatch: a batch larger than the whole queue
// bound must go through an empty blocking queue, not wait forever for room
// that cannot exist.
func TestBlockPolicyAdmitsOversizedBatch(t *testing.T) {
	_, addr := startServer(t, Config{Store: testStoreCfg(), Policy: PolicyBlock, QueueFrames: 16})
	rs := dialRaw(t, addr, "", 2)
	rs.writeBatch(0, 64, 2)
	rs.writeBatch(64, 64, 2) // and again behind it, once the first has drained
	rs.write(wire.MsgFlush, nil)
	rs.flush()
	rs.expectAck(0, wire.CodeOK)
	rs.expectAck(64, wire.CodeOK)
	if stored := rs.expectFlushAck(); stored != 128 {
		t.Fatalf("flush reports %d stored, want 128", stored)
	}
}

// appenderStall parks a session's appender after it has stored a batch:
// the config snapshots every 16 frames, a snapshot seals the live store,
// and the store's seal hook — called on the appender, outside every lock
// the reader needs — waits here.
type appenderStall struct {
	armed   atomic.Bool
	entered chan struct{} // one token per parked call
	release chan struct{} // closed to let parked calls return
}

func (s *appenderStall) observeSeal(time.Duration, bool, int) {
	if s.armed.Load() {
		s.entered <- struct{}{}
		<-s.release
	}
}

func (s *appenderStall) resume() {
	s.armed.Store(false)
	close(s.release)
}

func stalledConfig(t *testing.T, cfg Config) (Config, *appenderStall) {
	s := &appenderStall{entered: make(chan struct{}, 1), release: make(chan struct{})}
	cfg.Store = testStoreCfg()
	cfg.Store.SealObserver = s.observeSeal
	cfg.Journal = journal.Config{Dir: t.TempDir(), SnapshotFrames: 16}
	return cfg, s
}

// stallOnFirstBatch sends batch [0,16) and returns once the appender has
// stored it and parked, leaving the queue empty.
func stallOnFirstBatch(t *testing.T, rs *rawSession, s *appenderStall) {
	t.Helper()
	s.armed.Store(true)
	rs.writeBatch(0, 16, 2)
	rs.flush()
	rs.expectAck(0, wire.CodeOK)
	select {
	case <-s.entered:
	case <-time.After(2 * time.Second):
		t.Fatal("appender never reached the snapshot")
	}
}

// TestStalledAppenderBlocksReaderAtFrameBound: with the appender stuck,
// the blocking queue fills to exactly QueueFrames and the reader stops
// there — the next batch is neither acknowledged nor queued until the
// appender moves — and nothing is lost once it does.
func TestStalledAppenderBlocksReaderAtFrameBound(t *testing.T) {
	cfg, stall := stalledConfig(t, Config{Policy: PolicyBlock, QueueFrames: 64})
	srv, addr := startServer(t, cfg)
	rs := dialRaw(t, addr, "stall-block", 2)
	stallOnFirstBatch(t, rs, stall)

	// Seven more batches: four fill the queue, the fifth blocks the reader.
	for seq := 16; seq < 128; seq += 16 {
		rs.writeBatch(seq, 16, 2)
	}
	rs.write(wire.MsgFlush, nil)
	rs.flush()
	session := func() SessionInfo { return srv.Sessions()[0] }
	if !waitFor(func() bool { return session().QueueLen == 64 }) {
		t.Fatalf("queue_len = %d, want the 64-frame bound", session().QueueLen)
	}
	// The reader must now be parked in the enqueue of [80,96): for as long
	// as the appender stays stuck nothing more is enqueued, and nothing is
	// sent (the acks it owes sit behind the input it still has buffered).
	rs.conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if typ, _, err := wire.ReadMessage(rs.br); err == nil {
		t.Fatalf("msg type %d arrived while the queue was full", typ)
	}
	if info := session(); info.QueueLen != 64 || info.FramesEnqueued != 80 || info.FramesStored != 16 {
		t.Fatalf("while stalled: %+v, want queue_len 64, 80 enqueued, 16 stored", info)
	}
	if d := srv.Metrics().QueueDepth; d != 64 {
		t.Fatalf("queue depth gauge = %d, want 64", d)
	}

	stall.resume()
	for seq := 16; seq < 128; seq += 16 {
		rs.expectAck(seq, wire.CodeOK)
	}
	if stored := rs.expectFlushAck(); stored != 128 {
		t.Fatalf("flush reports %d stored, want 128", stored)
	}
	if d := srv.Metrics().QueueDepth; d != 0 {
		t.Fatalf("queue depth gauge after the barrier = %d, want 0", d)
	}
}

// TestStalledAppenderShedsAtFrameBound: the same stall under PolicyShed.
// Batches that do not fit are refused with CodeShed, the watermark still
// advances over them (shed is acknowledged loss, never replayed), and the
// queue never holds more than its bound.
func TestStalledAppenderShedsAtFrameBound(t *testing.T) {
	cfg, stall := stalledConfig(t, Config{Policy: PolicyShed, QueueFrames: 64})
	srv, addr := startServer(t, cfg)
	rs := dialRaw(t, addr, "stall-shed", 2)
	stallOnFirstBatch(t, rs, stall)

	for seq := 16; seq < 128; seq += 16 {
		rs.writeBatch(seq, 16, 2)
	}
	rs.flush()
	for seq := 16; seq < 128; seq += 16 {
		code := wire.CodeOK
		if seq >= 80 { // the queue holds [16,80): 64 frames, full
			code = wire.CodeShed
		}
		rs.expectAck(seq, code)
		if n := srv.Sessions()[0].QueueLen; n > 64 {
			t.Fatalf("queue_len = %d, above the 64-frame bound", n)
		}
	}
	// The watermark covers the shed frames: offset 128 continues the
	// stream (no gap error) even though [80,128) was dropped, and a replay
	// of a shed batch is a duplicate. The queue is still full, so the
	// fresh batch is shed as well.
	rs.writeBatch(128, 16, 2)
	rs.writeBatch(96, 16, 2)
	rs.flush()
	rs.expectAck(128, wire.CodeShed)
	rs.expectAck(96, wire.CodeDuplicate)

	stall.resume()
	rs.write(wire.MsgFlush, nil)
	rs.flush()
	if stored := rs.expectFlushAck(); stored != 80 {
		t.Fatalf("flush reports %d stored, want the 80 admitted frames", stored)
	}
	rs.write(wire.MsgClose, nil)
	rs.flush()
	ca, err := wire.DecodeCloseAck(rs.expect(wire.MsgCloseAck))
	if err != nil || ca.Stored != 80 || ca.Shed != 64 {
		t.Fatalf("close ack %+v err=%v, want 80 stored, 64 shed", ca, err)
	}
}

// TestFlushBehindPipelinedBatches: a Flush written behind k batches in one
// burst is answered only after all k are stored, and it is answered by the
// appender reaching the barrier — no timer to wait out, no polling — so the
// fastest of a run of rounds finishes far below the 2 ms the old flush
// timer put under every partially filled buffer.
func TestFlushBehindPipelinedBatches(t *testing.T) {
	const (
		k      = 8
		frames = 24
		rounds = 40
	)
	_, addr := startServer(t, Config{Store: testStoreCfg()})
	rs := dialRaw(t, addr, "", 2)
	best := time.Hour
	for r := 0; r < rounds; r++ {
		base := r * k * frames
		for b := 0; b < k; b++ {
			rs.writeBatch(base+b*frames, frames, 2)
		}
		rs.write(wire.MsgFlush, nil)
		start := time.Now()
		rs.flush()
		for b := 0; b < k; b++ {
			rs.expectAck(base+b*frames, wire.CodeOK)
		}
		if stored, want := rs.expectFlushAck(), uint64(base+k*frames); stored != want {
			t.Fatalf("round %d: flush reports %d stored, want %d", r, stored, want)
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	if best >= 2*time.Millisecond {
		t.Fatalf("fastest of %d flush rounds took %v, want well under 2ms", rounds, best)
	}
}
