package server

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"aims/internal/core"
	"aims/internal/journal"
	"aims/internal/stream"
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
	if got := liveCount(srv); got != n {
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
// the config snapshots every 16 frames, and the journal opens a
// snapshot's temp file through its OpenFile hook — called on the
// appender, outside every lock the reader needs — which waits here.
type appenderStall struct {
	armed   atomic.Bool
	entered chan struct{} // one token per parked call
	release chan struct{} // closed to let parked calls return
}

func (s *appenderStall) open(path string) (journal.File, error) {
	if s.armed.Load() && isSnapshotTemp(path) {
		s.entered <- struct{}{}
		<-s.release
	}
	return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
}

// isSnapshotTemp reports whether the journal opens path to write a
// snapshot, not a WAL segment.
func isSnapshotTemp(path string) bool { return filepath.Ext(path) == ".tmp" }

func (s *appenderStall) resume() {
	s.armed.Store(false)
	close(s.release)
}

func stalledConfig(t *testing.T, cfg Config) (Config, *appenderStall) {
	s := &appenderStall{entered: make(chan struct{}, 1), release: make(chan struct{})}
	cfg.Store = testStoreCfg()
	cfg.Journal = journal.Config{Dir: t.TempDir(), SnapshotFrames: 16, OpenFile: s.open}
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
	if d := srv.metrics.queueDepth.Value(); d != 64 {
		t.Fatalf("queue depth gauge = %d, want 64", d)
	}

	stall.resume()
	for seq := 16; seq < 128; seq += 16 {
		rs.expectAck(seq, wire.CodeOK)
	}
	if stored := rs.expectFlushAck(); stored != 128 {
		t.Fatalf("flush reports %d stored, want 128", stored)
	}
	if d := srv.metrics.queueDepth.Value(); d != 0 {
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

// syncGate opens WAL segments that count their fsyncs and, once armed, park
// each one until released: the appender stalls inside the durability step,
// holding the group it has taken off the queue.
type syncGate struct {
	armed   atomic.Bool
	syncs   atomic.Int64
	entered chan struct{} // one token per parked call
	release chan struct{} // closed to let parked calls return
}

func newSyncGate() *syncGate {
	return &syncGate{entered: make(chan struct{}, 1), release: make(chan struct{})}
}

type gatedFile struct {
	*os.File
	g *syncGate
}

func (g *syncGate) open(path string) (journal.File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	return &gatedFile{File: f, g: g}, nil
}

func (f *gatedFile) Sync() error {
	f.g.syncs.Add(1)
	if f.g.armed.Load() {
		f.g.entered <- struct{}{}
		<-f.g.release
	}
	return f.File.Sync()
}

func (g *syncGate) resume() {
	g.armed.Store(false)
	close(g.release)
}

// gatedConfig journals through a sync gate, with no periodic snapshots: the WAL alone carries the session.
func gatedConfig(t *testing.T, cfg Config) (Config, *syncGate) {
	g := newSyncGate()
	cfg.Store = testStoreCfg()
	cfg.Journal = journal.Config{Dir: t.TempDir(), SnapshotFrames: -1, OpenFile: g.open}
	return cfg, g
}

// parkInFirstSync sends batch [0,16) and returns once the appender has
// taken it — a group of one — and parked in its fsync.
func parkInFirstSync(t *testing.T, rs *rawSession, g *syncGate) {
	t.Helper()
	g.armed.Store(true)
	rs.writeBatch(0, 16, 2)
	rs.flush()
	rs.expectAck(0, wire.CodeOK)
	select {
	case <-g.entered:
	case <-time.After(2 * time.Second):
		t.Fatal("appender never reached the fsync")
	}
}

// TestBacklogBehindOneFsyncCommitsAsOneGroup: what queues while the
// appender is inside one fsync — three batches and a Flush — is journaled
// as one group under one more fsync; the Flush is answered only after that
// sync returns, its count covers all of them, and a process killed right
// then recovers every frame from the WAL.
func TestBacklogBehindOneFsyncCommitsAsOneGroup(t *testing.T) {
	cfg, gate := gatedConfig(t, Config{Policy: PolicyBlock, QueueFrames: 64})
	srv, addr := startServer(t, cfg)
	rs := dialRaw(t, addr, "one-group", 2)
	parkInFirstSync(t, rs, gate)

	for seq := 16; seq < 64; seq += 16 {
		rs.writeBatch(seq, 16, 2)
	}
	rs.write(wire.MsgFlush, nil)
	rs.flush()
	session := func() SessionInfo { return srv.Sessions()[0] }
	if !waitFor(func() bool { return session().FramesEnqueued == 64 }) {
		t.Fatalf("%d frames enqueued, want 64", session().FramesEnqueued)
	}
	// Nothing is stored and the barrier is not answered while the first
	// group's sync is still out.
	rs.conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if typ, _, err := wire.ReadMessage(rs.br); err == nil {
		t.Fatalf("msg type %d arrived while the fsync was parked", typ)
	}
	if info := session(); info.FramesStored != 0 || info.QueueLen != 64 {
		t.Fatalf("while parked: %+v, want nothing stored and all 64 frames charged", info)
	}

	before := gate.syncs.Load()
	gate.resume()
	for seq := 16; seq < 64; seq += 16 {
		rs.expectAck(seq, wire.CodeOK)
	}
	if stored := rs.expectFlushAck(); stored != 64 {
		t.Fatalf("flush reports %d stored, want 64", stored)
	}
	if got := gate.syncs.Load() - before; got != 1 {
		t.Fatalf("three queued batches cost %d fsyncs, want one for the group", got)
	}

	// kill -9 here: a second process finds all four batches in the log.
	m, err := journal.OpenManager(journal.Config{Dir: cfg.Journal.Dir, SnapshotFrames: -1})
	if err != nil {
		t.Fatal(err)
	}
	recovered, err := m.Recover(cfg.Store)
	if err != nil || len(recovered) != 1 {
		t.Fatalf("recover: %v (%d sessions)", err, len(recovered))
	}
	if r := recovered[0]; r.Processed != 64 || r.Store.Frames() != 64 || r.Truncated {
		t.Fatalf("recovered processed=%d frames=%d truncated=%v, want 64/64/false", r.Processed, r.Store.Frames(), r.Truncated)
	}
}

// TestHeldGroupStaysChargedToTheFrameBound: frames the appender has taken
// off the queue but not yet stored still count against QueueFrames, so a
// stalled fsync cannot let the session hold a queue's worth of frames
// twice. With 16 frames held, 48 more fill the bound; the next batch blocks
// the reader (block policy) or is shed (shed policy). Before group commit
// the appender uncharged a batch as it took it, and 64 more were admitted.
func TestHeldGroupStaysChargedToTheFrameBound(t *testing.T) {
	for _, policy := range []Policy{PolicyBlock, PolicyShed} {
		cfg, gate := gatedConfig(t, Config{Policy: policy, QueueFrames: 64})
		srv, addr := startServer(t, cfg)
		rs := dialRaw(t, addr, "held-group", 2)
		parkInFirstSync(t, rs, gate)

		for seq := 16; seq < 80; seq += 16 {
			rs.writeBatch(seq, 16, 2)
		}
		rs.flush()
		session := func() SessionInfo { return srv.Sessions()[0] }
		// The reader admits [16,64) and stops at [64,80): parked in the
		// enqueue (block), or shedding it — and then waiting to journal the
		// shed watermark behind the fsync in progress (shed). Either way the
		// acks it owes sit behind the input it still has buffered.
		if !waitFor(func() bool {
			info := session()
			return info.FramesEnqueued == 64 && (policy == PolicyBlock || info.ShedFrames == 16)
		}) {
			t.Fatalf("policy %v: reader never reached the bound: %+v", policy, session())
		}
		rs.conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
		if typ, _, err := wire.ReadMessage(rs.br); err == nil {
			t.Fatalf("policy %v: msg type %d arrived while the bound was full", policy, typ)
		}
		if info := session(); info.QueueLen != 64 || info.FramesEnqueued != 64 || info.FramesStored != 0 {
			t.Fatalf("policy %v, while parked: %+v, want 64 charged, 64 enqueued, none stored", policy, info)
		}
		if d := srv.metrics.queueDepth.Value(); d != 64 {
			t.Fatalf("policy %v: queue depth gauge = %d, want 64", policy, d)
		}

		gate.resume()
		want := uint64(80)
		for seq := 16; seq < 80; seq += 16 {
			code := wire.CodeOK
			if policy == PolicyShed && seq == 64 {
				code = wire.CodeShed
				want = 64
			}
			rs.expectAck(seq, code)
		}
		rs.write(wire.MsgFlush, nil)
		rs.flush()
		if stored := rs.expectFlushAck(); stored != want {
			t.Fatalf("policy %v: flush reports %d stored, want %d", policy, stored, want)
		}
		if d := srv.metrics.queueDepth.Value(); d != 0 {
			t.Fatalf("policy %v: queue depth gauge after the barrier = %d, want 0", policy, d)
		}
	}
}

// binnedFrames splits a core bins record into one string per frame, in
// frame order: "skip", or its time bucket and its cells.
func binnedFrames(rec []byte, cellBytes int) []string {
	var out []string
	n := int(binary.LittleEndian.Uint32(rec))
	runs := rec[4:]
	for len(out) < n {
		tb, k := binary.LittleEndian.Uint32(runs), int(binary.LittleEndian.Uint32(runs[4:]))
		runs = runs[8:]
		for ; k > 0; k-- {
			out = append(out, fmt.Sprint(tb)) // the cells follow the runs
		}
	}
	for i := range out {
		if out[i] == fmt.Sprint(uint32(math.MaxUint32)) {
			out[i] = "skip"
			continue
		}
		out[i] += fmt.Sprint(runs[:cellBytes])
		runs = runs[cellBytes:]
	}
	return out
}

// walBins parses the bins records of one WAL segment, in file order, into
// binnedFrames' one string per frame.
func walBins(t *testing.T, path string, cellBytes int) []string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for b = b[16:]; len(b) > 0; { // past the segment header
		length := binary.LittleEndian.Uint32(b)
		if b[8] == 3 { // bins record: first frame index, then the core bins record
			if first := binary.LittleEndian.Uint64(b[9:]); first != uint64(len(out)) {
				t.Fatalf("record carries frame index %d, %d frames precede it", first, len(out))
			}
			out = append(out, binnedFrames(b[17:8+length], cellBytes)...)
		}
		b = b[8+length:]
	}
	return out
}

// TestAppendLoopMatchesOneAtATimeModel drives a session's queue and
// appender directly with random interleavings of batches (some frames
// invalid), Flush barriers, shed acknowledgements and pauses, then closes
// the queue. Whatever groups the appender happened to form, the outcome is
// the one-at-a-time outcome: every barrier is released with everything
// ahead of it stored, every snapshot's watermark is the stored count, the
// counters and the store match a plain model, and the journal holds the
// frames in arrival order.
func TestAppendLoopMatchesOneAtATimeModel(t *testing.T) {
	const channels = 2
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		var sess *session
		var snapshots, skewed atomic.Int64
		cfg := Config{
			Store: testStoreCfg(),
			Journal: journal.Config{Dir: dir, SnapshotFrames: 100, OpenFile: func(path string) (journal.File, error) {
				if isSnapshotTemp(path) {
					// Opened on the appender, mid-Snapshot.
					snapshots.Add(1)
					if sess.jsess.Processed() != sess.stored.Load() {
						skewed.Add(1)
					}
				}
				return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
			}},
		}
		cfg.Store.Rate, cfg.Store.HorizonTicks = 100, 1<<14
		srv := New(cfg)
		mins, maxs := ranges(channels)
		newStore := func() *core.LiveStore {
			ls, err := core.NewLiveStore(mins, maxs, cfg.Store)
			if err != nil {
				t.Fatal(err)
			}
			return ls
		}
		eff := newStore().Config()
		jsess, _, err := srv.journal.Attach(journal.Meta{
			Name: "model", Rate: 100, HorizonTicks: eff.HorizonTicks,
			TimeBuckets: eff.TimeBuckets, ValueBins: eff.ValueBins, Mins: mins, Maxs: maxs,
		})
		if err != nil {
			t.Fatal(err)
		}
		sess = &session{srv: srv, store: newStore(), jsess: jsess}
		sess.q.init(256, false, srv.metrics.queueDepth, &srv.payloads)
		appended := make(chan struct{})
		go func() {
			defer close(appended)
			sess.appendLoop()
		}()

		// The test plays the reader; model is the one-at-a-time store.
		model := newStore()
		var sent []stream.Frame
		var bad, ackSeq uint64
		for op := 0; op < 300; op++ {
			switch r := rng.Intn(10); {
			case r < 6:
				frames := clientFrames(int(seed), len(sent)+1+rng.Intn(40), channels)[len(sent):]
				for i := range frames {
					if rng.Intn(10) == 0 {
						frames[i].T = -1 // journaled, then refused by the store
						bad++
					}
				}
				sent = append(sent, frames...)
				model.AppendFrames(frames)
				body, err := wire.AppendFrames(nil, frames, channels)
				if err != nil {
					t.Fatal(err)
				}
				rec, _ := sess.store.Bin(body, nil) // as the reader bins it
				if !sess.q.push(queued{n: len(frames), rec: rec}) {
					t.Fatal("blocking queue refused a batch")
				}
				sess.enqueued.Add(uint64(len(frames)))
				ackSeq += uint64(len(frames))
			case r < 8:
				barrier := queued{done: make(chan struct{})}
				sess.q.push(barrier)
				<-barrier.done
				if got := sess.stored.Load(); got != uint64(len(sent)) {
					t.Fatalf("seed %d: barrier released with %d of %d frames stored", seed, got, len(sent))
				}
				if got := sess.store.Frames(); got != model.Frames() {
					t.Fatalf("seed %d: store holds %d frames at the barrier, model %d", seed, got, model.Frames())
				}
			case r == 8:
				ackSeq += uint64(1 + rng.Intn(20)) // acknowledged as shed, never queued
				jsess.RecordAck(ackSeq, sess.enqueued.Load())
			default:
				time.Sleep(time.Duration(rng.Intn(300)) * time.Microsecond)
			}
		}
		sess.q.close()
		<-appended

		if st, enq, b := sess.stored.Load(), sess.enqueued.Load(), sess.badAppend.Load(); st != uint64(len(sent)) || enq != st || b != bad {
			t.Fatalf("seed %d: stored=%d enqueued=%d badAppend=%d, want %d/%d/%d", seed, st, enq, b, len(sent), len(sent), bad)
		}
		if n := srv.metrics.appendErrors.Value(); n != bad {
			t.Fatalf("seed %d: aims_append_errors_total = %d, want the %d bad frames", seed, n, bad)
		}
		if sess.q.len() != 0 || srv.metrics.queueDepth.Value() != 0 {
			t.Fatalf("seed %d: %d frames still charged (gauge %d) after the drain", seed, sess.q.len(), srv.metrics.queueDepth.Value())
		}
		if snapshots.Load() == 0 || skewed.Load() != 0 {
			t.Fatalf("seed %d: %d of %d snapshots took a watermark that was not the stored count", seed, skewed.Load(), snapshots.Load())
		}
		sameAnswers := func(got *core.LiveStore) {
			t.Helper()
			if got.Frames() != model.Frames() {
				t.Fatalf("seed %d: %d frames, model %d", seed, got.Frames(), model.Frames())
			}
			for ch := 0; ch < channels; ch++ {
				for _, t1 := range []float64{5, 40, 200} {
					a, _ := got.CountSamples(ch, 0, t1)
					b, _ := model.CountSamples(ch, 0, t1)
					va, _, _ := got.AverageValue(ch, 0, t1)
					vb, _, _ := model.AverageValue(ch, 0, t1)
					if a != b || va != vb {
						t.Fatalf("seed %d ch %d [0,%v): count %v avg %v, model %v / %v", seed, ch, t1, a, va, b, vb)
					}
				}
			}
		}
		sameAnswers(sess.store)

		// The journal: one segment (nothing rotated), frames in arrival
		// order, each as the store bins it.
		logged := walBins(t, filepath.Join(dir, "model", "wal-00000001.log"), channels)
		if len(logged) != len(sent) {
			t.Fatalf("seed %d: journal holds %d frames, %d were sent", seed, len(logged), len(sent))
		}
		all, _ := model.Binner().BinFrames(sent, nil)
		for i, want := range binnedFrames(all, channels) {
			if logged[i] != want {
				t.Fatalf("seed %d: journaled frame %d is %s, the %dth sent bins to %s", seed, i, logged[i], i, want)
			}
		}
		// And a crash now recovers the model, acknowledged to the device's
		// own watermark: every frame sent, plus every frame shed.
		m, err := journal.OpenManager(journal.Config{Dir: dir, SnapshotFrames: -1})
		if err != nil {
			t.Fatal(err)
		}
		recovered, err := m.Recover(cfg.Store)
		if err != nil || len(recovered) != 1 {
			t.Fatalf("seed %d: recover: %v (%d sessions)", seed, err, len(recovered))
		}
		if r := recovered[0]; r.Processed != uint64(len(sent)) || r.AckSeq != ackSeq || r.Truncated {
			t.Fatalf("seed %d: recovered processed=%d ack=%d truncated=%v, want %d/%d/false", seed, r.Processed, r.AckSeq, r.Truncated, len(sent), ackSeq)
		}
		sameAnswers(recovered[0].Store)
		jsess.Close(nil)
	}
}
