package server

import (
	"bufio"
	"errors"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"aims/internal/core"
	"aims/internal/fleet"
	"aims/internal/journal"
	"aims/internal/obs"
	"aims/internal/wire"
)

// session is one registered device connection: its live store, bounded
// ingest queue and accounting. Two goroutines serve it. The reader owns the
// socket — every read and every response write — so responses are naturally
// ordered; the appender drains the queue into the journal and the store.
type session struct {
	id    uint64
	idStr string // cached decimal form: traces attr it on every query
	srv   *Server
	conn  net.Conn
	bw    *bufio.Writer
	br    *bufio.Reader
	store *core.LiveStore
	rate  float64
	name  string // registration name from the Hello
	class string // device class from the Hello

	// ackSeq is the acknowledged client-stream watermark: the device-side
	// frame offset below which every frame has been accepted (enqueued or
	// knowingly shed). Owned by the reader goroutine.
	ackSeq  uint64
	sawPing bool // device heartbeats → liveness window replaces IdleTimeout

	// held is the session's name-table entry (nil when anonymous). jsess is
	// its durability handle (nil when anonymous, when the server runs
	// memory-only, or when journaling failed at registration). resumed is
	// true when registration adopted a parked or recovered session.
	held    *owner
	jsess   *journal.Session
	resumed bool

	q         batchQueue
	enqueued  atomic.Uint64 // frames pushed to the queue (written by the reader goroutine)
	shedB     atomic.Uint64 // batches shed (written by the reader goroutine)
	shedF     atomic.Uint64 // frames shed (written by the reader goroutine)
	stored    atomic.Uint64 // frames appended to the store
	badAppend atomic.Uint64

	closeRequested bool
}

// queued is one entry of a session's ingest queue: a checked wire batch on
// its way to the journal and the store, or — no frames, done set — a Flush
// barrier. A batch travels undecoded: frames is its n encoded frame records
// (a replayed prefix already sliced off), and buf is the payload buffer
// they live in, which the appender hands back to the queue's spares once
// the batch is stored.
type queued struct {
	n      int
	frames []byte
	buf    []byte
	done   chan struct{} // barrier: closed by the appender once everything ahead of it is stored

	// The batch's timeline travels with it, so its trace is stamped where
	// the batch ends (traceBatch): tr is the live trace of a sampled batch,
	// nil for any other, which gets a late trace there if it was slow.
	tr      *obs.Trace
	start   time.Time // when the reader began checking the batch
	decoded time.Time // when the reader finished checking it
	at      time.Time // when the queue admitted it (stamped by push)
	trimmed bool      // a replayed prefix was sliced off
}

// Spare payload buffers. Under load a session circulates a handful of
// buffers between reader and appender, so it keeps up to maxSpareBufs of
// them; once it holds more than restSpareBufs, a timer lets the extra go
// spareLinger later, so a session at rest holds at most restSpareBufs. A
// buffer larger than maxSpareBytes — a rare oversized message — is never
// kept.
const (
	maxSpareBufs  = 8
	restSpareBufs = 2
	spareLinger   = 250 * time.Millisecond
	maxSpareBytes = 1 << 20
)

// batchQueue is the reader → appender hand-off: a FIFO of wire batches
// bounded by the frames the session holds outside its store — those queued
// and those the appender has taken but not yet stored. One producer (the
// reader) and one consumer (the appender) means at most one of them is ever
// waiting, so a single condition variable serves both directions.
//
// It also recycles the session's payload buffers. The reader reads every
// message into one taken from spares (buffer), and a batch's buffer rides
// the queue with it until the appender, having stored the batch, hands it
// back (release). Every other message — and a batch that is shed, a
// duplicate or refused — goes back as soon as the reader is done with it
// (recycle). Message decoders copy what they keep, so a buffer is only
// ever read by its current owner. Returned buffers wait as spares, at most
// restSpareBufs of them once the session is at rest.
type batchQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	limit  int  // Config.QueueFrames
	shed   bool // PolicyShed: refuse what does not fit instead of waiting
	items  []queued
	frames int        // Σ n over items and over entries taken but not yet released
	depth  *obs.Gauge // server-wide aims_queue_depth: moves with frames
	closed bool

	// Payload buffers: spares[:nspare] wait for reuse. fresh counts those
	// allocated because no spare fitted and dropped those let go, so with
	// nothing in flight fresh == dropped + nspare — every buffer came back
	// exactly once. trim, armed while trimming, cuts the spares back to
	// restSpareBufs.
	spares   [maxSpareBufs][]byte
	nspare   int
	fresh    int
	dropped  int
	trim     *time.Timer
	trimming bool
}

func (q *batchQueue) init(limit int, shed bool, depth *obs.Gauge) {
	q.cond = sync.NewCond(&q.mu)
	q.limit, q.shed, q.depth = limit, shed, depth
}

// buffer supplies storage for an n-byte payload: a spare when one is big
// enough, else a fresh allocation. An empty payload needs no buffer.
func (q *batchQueue) buffer(n int) []byte {
	if n == 0 {
		return nil
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	for i := q.nspare - 1; i >= 0; i-- {
		if b := q.spares[i]; cap(b) >= n {
			q.nspare--
			q.spares[i], q.spares[q.nspare] = q.spares[q.nspare], nil
			return b
		}
	}
	q.fresh++
	return make([]byte, n)
}

// recycle takes back a payload buffer its owner is done with; it is kept
// as a spare while there is room.
func (q *batchQueue) recycle(b []byte) {
	q.mu.Lock()
	q.recycleLocked(b)
	q.mu.Unlock()
}

func (q *batchQueue) recycleLocked(b []byte) {
	if cap(b) == 0 {
		return // an empty payload never had a buffer
	}
	if cap(b) > maxSpareBytes || q.nspare == maxSpareBufs {
		q.dropped++
		return
	}
	q.spares[q.nspare] = b
	q.nspare++
	if q.nspare > restSpareBufs && !q.trimming {
		q.trimming = true
		if q.trim == nil {
			q.trim = time.AfterFunc(spareLinger, q.trimSpares)
		} else {
			q.trim.Reset(spareLinger)
		}
	}
}

// trimSpares lets go of the spares beyond restSpareBufs.
func (q *batchQueue) trimSpares() {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.nspare > restSpareBufs {
		q.nspare--
		q.spares[q.nspare] = nil
		q.dropped++
	}
	q.trimming = false
}

// push enqueues e and reports whether it was admitted. A batch that does
// not fit (queued + e.n > limit) is refused by a shedding queue; a
// blocking queue waits for the appender to make room, except that an empty
// queue admits any batch — one larger than the whole bound would otherwise
// wait forever. Barriers hold no frames and always fit. A refused batch's
// buffer still belongs to the caller.
func (q *batchQueue) push(e queued) bool {
	n := e.n
	q.mu.Lock()
	defer q.mu.Unlock()
	for n > 0 && q.frames+n > q.limit {
		if q.shed {
			return false
		}
		if q.frames == 0 {
			break
		}
		q.cond.Wait()
	}
	e.at = time.Now()
	q.items = append(q.items, e)
	q.frames += n
	q.depth.Add(int64(n))
	q.cond.Signal()
	return true
}

// take blocks until an entry is queued, then moves the queue's head into
// group (reusing its storage): every entry up to and including the first
// Flush barrier, or everything queued when there is none. The frames taken
// stay charged to the bound until release. ok is false once the queue is
// closed and drained.
func (q *batchQueue) take(group []queued) (_ []queued, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 {
		if q.closed {
			return group[:0], false
		}
		q.cond.Wait()
	}
	n := len(q.items)
	for i := range q.items {
		if q.items[i].done != nil {
			n = i + 1
			break
		}
	}
	group = append(group[:0], q.items[:n]...)
	rest := copy(q.items, q.items[n:])
	clear(q.items[rest:]) // drop the buffer references with the slots
	q.items = q.items[:rest]
	return group, true
}

// release uncharges the n frames of a batch the appender took and has now
// stored, and takes back its payload buffer.
func (q *batchQueue) release(n int, buf []byte) {
	q.mu.Lock()
	q.frames -= n
	q.depth.Add(-int64(n))
	q.recycleLocked(buf)
	q.cond.Signal()
	q.mu.Unlock()
}

// close ends the stream: take drains what is queued, then reports !ok.
func (q *batchQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Signal()
	q.mu.Unlock()
}

// len returns the frames charged to the bound: queued, or taken and not
// yet stored.
func (q *batchQueue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.frames
}

func (s *Server) handleConn(conn net.Conn) {
	sess := &session{
		srv:  s,
		conn: conn,
		bw:   bufio.NewWriterSize(conn, 64<<10),
		br:   bufio.NewReaderSize(conn, 64<<10),
	}
	sess.q.init(s.cfg.QueueFrames, s.cfg.Policy == PolicyShed, s.metrics.queueDepth)
	defer conn.Close()

	if !sess.handshake() {
		return
	}
	s.register(sess)
	// The high-watermark tells a resuming device exactly what the server
	// holds: replay starts there, everything below is deduped.
	w := wire.Welcome{SessionID: sess.id, Code: wire.CodeOK, AckSeq: sess.ackSeq}
	if sess.resumed {
		w.Code = wire.CodeResumed
		s.metrics.resumesTotal.Inc()
	}
	if sess.write(wire.MsgWelcome, w.Encode()) != nil || sess.flush() != nil {
		// The link died under the Welcome itself; the device's retry still
		// finds a named session's state parked.
		s.leave(sess)
		return
	}
	s.cfg.Logf("session %d: registered %d channels at %.1f Hz (resumed=%v ack=%d)",
		sess.id, sess.store.Channels(), sess.rate, sess.resumed, sess.ackSeq)

	appended := make(chan struct{})
	go func() {
		defer close(appended)
		sess.appendLoop()
	}()

	sess.readLoop()

	// Drain: no more enqueues; the appender stores everything still queued
	// before the session leaves.
	sess.q.close()
	<-appended

	// A Close is acknowledged once the journal is durable and the session
	// parked, so a device that never reads the CloseAck resumes it in place.
	if sess.closeRequested && sess.jsess != nil {
		sess.jsess.Checkpoint(sess.store) // a failure is logged, and the WAL synced
	}
	s.leave(sess)
	if sess.closeRequested {
		ack := wire.CloseAck{Stored: uint64(sess.store.Frames()), Shed: sess.shedF.Load()}
		sess.reply(wire.MsgCloseAck, ack.Encode())
	}
	s.cfg.Logf("session %d: left (name=%q close=%v stored=%d shed=%d ack=%d)",
		sess.id, sess.name, sess.closeRequested, sess.stored.Load(), sess.shedF.Load(), sess.ackSeq)
}

// write frames one message onto the session's buffered writer and
// accounts its bytes to the per-type wire counters. The write deadline is
// re-armed per message (not just per flush): a buffered-writer overflow
// hits the socket here, and a deadline armed minutes ago would fail it.
func (sess *session) write(typ byte, payload []byte) error {
	sess.conn.SetWriteDeadline(time.Now().Add(sess.srv.cfg.WriteTimeout))
	if err := wire.WriteMessage(sess.bw, typ, payload); err != nil {
		return err
	}
	sess.srv.metrics.countOut(typ, len(payload))
	return nil
}

// flush pushes the response buffer to the socket under the write deadline,
// so a device that stopped reading can never wedge this goroutine.
func (sess *session) flush() error {
	sess.conn.SetWriteDeadline(time.Now().Add(sess.srv.cfg.WriteTimeout))
	return sess.bw.Flush()
}

// handshake reads and validates the Hello and builds the live store. It
// reports whether the session may proceed (the caller registers the
// session and sends the Welcome).
func (sess *session) handshake() bool {
	srv := sess.srv
	sess.conn.SetReadDeadline(time.Now().Add(srv.cfg.IdleTimeout))
	typ, payload, err := wire.ReadMessageInto(sess.br, sess.q.buffer)
	if err != nil {
		return false
	}
	defer sess.q.recycle(payload)
	srv.metrics.countIn(typ, len(payload))
	if typ != wire.MsgHello {
		sess.sendError(wire.CodeNotRegistered, "first message must be hello")
		return false
	}
	h, err := wire.DecodeHello(payload)
	if err != nil {
		sess.sendError(wire.CodeBadVersion, err.Error())
		return false
	}
	sess.rate = h.Rate
	sess.name = h.Name
	sess.class = h.Class

	if h.Name != "" {
		// The name is settled before journal.Attach: a parked, recovered or
		// taken-over session still owns its journal key, and adopting its
		// state keeps that key instead of forking a second directory.
		if code := srv.claim(sess, h); code != wire.CodeOK {
			srv.cfg.Logf("session %q: hello refused (%s)", h.Name, code)
			sess.reply(wire.MsgWelcome, wire.Welcome{Code: code}.Encode())
			return false
		}
		if sess.resumed {
			return true
		}
	}

	cfg := srv.cfg.Store
	cfg.Rate = h.Rate
	cfg.HorizonTicks = int(h.HorizonTicks)
	store, err := core.NewLiveStore(h.Mins, h.Maxs, cfg)
	if err != nil {
		if sess.held != nil {
			srv.retire(sess.held)
		}
		sess.sendError(wire.CodeBadMessage, err.Error())
		return false
	}
	sess.store = store

	// Only a named session is journaled: no Hello can resume an anonymous
	// one.
	if srv.journal != nil && sess.held != nil {
		eff := store.Config()
		jsess, _, jerr := srv.journal.Attach(journal.Meta{
			Name:         h.Name,
			Rate:         h.Rate,
			HorizonTicks: eff.HorizonTicks,
			TimeBuckets:  eff.TimeBuckets,
			ValueBins:    eff.ValueBins,
			Mins:         h.Mins,
			Maxs:         h.Maxs,
		})
		if jerr != nil {
			// The session still serves, just without durability; the counter
			// makes the gap visible on the admin plane.
			srv.cfg.Logf("session %q: journaling unavailable: %v", h.Name, jerr)
			srv.metrics.journalDegraded.Inc()
		}
		sess.jsess = jsess
	}
	return true
}

// reply sends one message and flushes it: a session's last word.
func (sess *session) reply(typ byte, payload []byte) {
	if sess.write(typ, payload) == nil {
		sess.flush()
	}
}

func (sess *session) sendError(code wire.Code, text string) {
	sess.reply(wire.MsgError, wire.ErrMsg{Code: code, Text: text}.Encode())
}

// appendLoop is the session's appender goroutine. Each turn takes a group
// — whatever queued while the previous one was being made durable, up to
// the next Flush barrier: one batch on an idle link, a run of them under
// load — journals it with one durability step, appends its batches to the
// live store in arrival order, and only then releases the barrier that
// ended it. It blocks (no timer) while the queue is empty and returns once
// the queue is closed and drained.
func (sess *session) appendLoop() {
	m := sess.srv.metrics
	var group []queued
	var batches [][]byte
	for {
		var ok bool
		if group, ok = sess.q.take(group); !ok {
			return
		}
		var barrier chan struct{}
		batches = batches[:0]
		for _, e := range group {
			if e.done != nil {
				barrier = e.done
			} else {
				batches = append(batches, e.frames)
			}
		}
		if len(batches) == 0 {
			close(barrier)
			continue
		}
		if sess.jsess != nil {
			// Write-ahead: the group hits the journal, and is synced per
			// policy, before any of it reaches the store, so a crash after
			// this point replays it rather than losing it. Under the block
			// policy a dead disk stalls here until shutdown gives up.
			sess.jsess.AppendGroup(batches, func() bool { return !sess.srv.isClosed() })
		}
		for i := range batches {
			// Once stored, a batch's buffer goes back to the reader: the
			// queue refills against the frames released below, and a
			// reference kept here until the group ends would pin it.
			e := group[i]
			group[i], batches[i] = queued{}, nil
			// One append per wire batch under a single write-lock
			// acquisition, quantised straight out of the payload bytes
			// (frames with a negative tick are skipped inside).
			t0 := time.Now()
			stored, _ := sess.store.AppendEncoded(e.frames)
			end := time.Now()
			m.appendSeconds.Observe(end.Sub(t0).Seconds())
			if bad := uint64(e.n - stored); bad > 0 {
				sess.badAppend.Add(bad)
				m.appendErrors.Add(bad)
			}
			sess.stored.Add(uint64(e.n)) // processed, including bad appends
			m.framesIngested.Add(uint64(stored))
			sess.q.release(e.n, e.buf)
			// Queue wait runs from admission to the start of the store
			// append, so it includes the write-ahead.
			m.queueWaitSeconds.Observe(t0.Sub(e.at).Seconds())
			sess.traceBatch(&e, t0, end, "")
		}
		if barrier != nil {
			close(barrier)
		}
		if sess.jsess != nil {
			sess.jsess.MaybeSnapshot(sess.store)
		}
	}
}

// readLoop processes messages until the client closes, errs, idles out or
// the server shuts down.
func (sess *session) readLoop() {
	srv := sess.srv
	for {
		// A heartbeating device tightens its own liveness window: missing
		// ~2.5 ping intervals means the link is gone, and waiting out the
		// full idle horizon would only delay the park-for-resume.
		window := srv.cfg.IdleTimeout
		if sess.sawPing {
			if hb := srv.cfg.Heartbeat * 5 / 2; hb < window {
				window = hb
			}
		}
		sess.conn.SetReadDeadline(time.Now().Add(window))
		if srv.isClosed() {
			// Shutdown's wake-up sweep may have landed between two messages,
			// just before the line above re-armed the deadline past it.
			sess.conn.SetReadDeadline(time.Now())
		}
		typ, payload, err := wire.ReadMessageInto(sess.br, sess.q.buffer)
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				if srv.isClosed() {
					sess.sendError(wire.CodeShuttingDown, "server shutting down")
				} else if sess.sawPing && window < srv.cfg.IdleTimeout {
					srv.cfg.Logf("session %d: heartbeat lost", sess.id)
				} else {
					srv.metrics.evictions.Inc()
					sess.sendError(wire.CodeIdleEvicted, "session idle")
				}
			}
			return
		}
		srv.metrics.countIn(typ, len(payload))
		if typ == wire.MsgBatch {
			// The batch's buffer is handleBatch's to hand on or return.
			if !sess.handleBatch(payload) {
				return
			}
			continue
		}
		if !sess.handleMessage(typ, payload) {
			return
		}
	}
}

// handleMessage answers one message other than a batch. Each decoder copies
// what it keeps out of the payload, so its buffer goes back to the spares
// once the message is answered.
func (sess *session) handleMessage(typ byte, payload []byte) bool {
	defer sess.q.recycle(payload)
	switch typ {
	case wire.MsgFlush:
		return sess.handleFlush()
	case wire.MsgQuery:
		return sess.handleQuery(payload)
	case wire.MsgFleetQuery:
		return sess.handleFleetQuery(payload)
	case wire.MsgPing:
		p, err := wire.DecodePing(payload)
		if err != nil {
			sess.sendError(wire.CodeBadMessage, err.Error())
			return false
		}
		sess.sawPing = true
		sess.srv.metrics.heartbeats.Inc()
		return sess.write(wire.MsgPong, wire.Pong{Nonce: p.Nonce}.Encode()) == nil && sess.flushIfIdle()
	case wire.MsgClose:
		sess.closeRequested = true
		return false
	}
	sess.sendError(wire.CodeBadMessage, "unexpected message type")
	return false
}

// flushIfIdle pushes buffered responses out when no further client input
// is already buffered — batching acks under load without ever letting the
// client block on a response we are sitting on.
func (sess *session) flushIfIdle() bool {
	if sess.br.Buffered() == 0 {
		return sess.flush() == nil
	}
	return true
}

// handleBatch checks one wire batch — without decoding it — and enqueues
// it for the appender, payload buffer and all; a batch that is not enqueued
// returns its buffer, and has its trace stamped, at once.
func (sess *session) handleBatch(payload []byte) bool {
	srv := sess.srv
	e := queued{buf: payload, start: time.Now()}
	e.tr = srv.tracer.Begin("ingest", 0, false, e.start)
	seq, n, frames, err := wire.CheckBatch(payload, sess.store.Channels())
	e.decoded = time.Now()
	srv.metrics.decodeSeconds.Observe(e.decoded.Sub(e.start).Seconds())
	e.n, e.frames = n, frames
	if err != nil {
		sess.q.recycle(payload)
		sess.traceBatch(&e, time.Time{}, time.Now(), "refused")
		sess.sendError(wire.CodeBadMessage, err.Error())
		return false
	}
	ack := wire.BatchAck{Seq: seq, Code: wire.CodeOK, Stored: uint32(n)}
	// Idempotent append: batches carry absolute stream offsets, so a replay
	// after a reconnect is recognised against the acknowledged watermark.
	// Batches entirely at or below it are acknowledged and dropped
	// (at-least-once replay becomes exactly-once append); a batch
	// straddling it has its already-held prefix trimmed.
	if end := seq + uint64(n); end <= sess.ackSeq {
		sess.q.recycle(payload)
		ack.Code = wire.CodeDuplicate
		srv.metrics.dupBatches.Inc()
		sess.traceBatch(&e, time.Time{}, time.Now(), "duplicate")
		if sess.write(wire.MsgBatchAck, ack.Encode()) != nil {
			return false
		}
		return sess.flushIfIdle()
	}
	if seq < sess.ackSeq {
		k := int(sess.ackSeq - seq)
		e.frames = frames[k*wire.FrameSize(sess.store.Channels()):]
		e.n -= k
		e.trimmed = true
		seq = sess.ackSeq
		srv.metrics.dupBatches.Inc()
	} else if seq > sess.ackSeq {
		// A gap means frames went missing between device and server — a
		// correct client streams contiguously from the watermark, so this
		// is corruption or a broken sender. Failing fast tears the link
		// down; the reconnect resumes from the intact watermark.
		sess.q.recycle(payload)
		sess.traceBatch(&e, time.Time{}, time.Now(), "refused")
		sess.sendError(wire.CodeBadMessage, "batch offset ahead of session watermark")
		return false
	}
	// One enqueue per wire batch. Under PolicyBlock a full queue blocks
	// here: the reader stops draining the socket and the device feels the
	// backpressure.
	if sess.q.push(e) {
		// The batch — buffer, trace and timeline — now belongs to the
		// appender, which stores it, returns the buffer and stamps the
		// trace.
		sess.enqueued.Add(uint64(e.n))
		srv.metrics.batchesIngested.Inc()
	} else {
		sess.q.recycle(payload)
		ack.Code = wire.CodeShed
		sess.shedB.Add(1)
		sess.shedF.Add(uint64(e.n))
		srv.metrics.batchesShed.Inc()
		srv.metrics.framesShed.Add(uint64(e.n))
		sess.traceBatch(&e, time.Time{}, time.Now(), "shed")
	}
	// Accepted or shed, the batch is acknowledged and the watermark covers
	// it. Enqueued means acknowledged even before the appender journals it
	// (the client's replay buffer retains acked batches precisely because
	// of this gap); shed frames are acknowledged as lost — by contract shed
	// is lossy and the device must not replay them — so the journal records
	// the divergence between client offsets and journaled frames and a
	// post-crash resume reports the same watermark.
	sess.ackSeq = seq + uint64(e.n)
	if ack.Code == wire.CodeShed && sess.jsess != nil {
		sess.jsess.RecordAck(sess.ackSeq)
	}
	if sess.write(wire.MsgBatchAck, ack.Encode()) != nil {
		return false
	}
	return sess.flushIfIdle()
}

// traceBatch stamps a batch's trace where the batch ends, at end: in the
// appender once it is stored, with the store append starting at appended;
// in the reader when it is a duplicate, shed or refused, which note names.
// A sampled batch carries its live trace; any other gets a late one if it
// was slow, and otherwise costs nothing.
func (sess *session) traceBatch(e *queued, appended, end time.Time, note string) {
	tr := e.tr
	if tr == nil {
		if tr = sess.srv.tracer.Late("ingest", 0, e.start, end); tr == nil {
			return
		}
	}
	tr.Span("decode", e.start, e.decoded)
	tr.SetAttr("session", sess.idStr)
	if sess.class != "" {
		tr.SetAttr("class", sess.class)
	}
	tr.SetAttr("bytes", strconv.Itoa(len(e.buf)))
	tr.SetAttr("frames", strconv.Itoa(e.n))
	if e.trimmed {
		tr.Span("trimmed", e.decoded, e.decoded)
	}
	if note != "" {
		tr.Span(note, end, end)
	} else {
		tr.Span("enqueue", e.decoded, e.at)
		tr.Span("queue-wait", e.at, appended)
		tr.Span("append", appended, end)
	}
	tr.Finish()
}

// handleFlush answers the client's drain barrier: a zero-frame entry rides
// the queue behind every batch enqueued so far, and FIFO order plus the
// single appender mean that when it is reached all of them are stored.
func (sess *session) handleFlush() bool {
	barrier := queued{done: make(chan struct{})}
	sess.q.push(barrier)
	deadline := time.NewTimer(sess.srv.cfg.IdleTimeout)
	defer deadline.Stop()
	select {
	case <-barrier.done:
	case <-deadline.C:
		sess.sendError(wire.CodeInternal, "flush barrier timed out")
		return false
	}
	ack := wire.FlushAck{Stored: sess.stored.Load() - sess.badAppend.Load()}
	if sess.write(wire.MsgFlushAck, ack.Encode()) != nil {
		return false
	}
	return sess.flush() == nil
}

func (sess *session) handleQuery(payload []byte) bool {
	srv := sess.srv
	t0 := time.Now()
	q, err := wire.DecodeQuery(payload)
	t1 := time.Now()
	// The sampler is consulted only after decode because the wire context
	// (trace ID, forced sampling from the client's -trace flag) rides in
	// the payload. Sampled and forced queries trace live; everything else
	// runs allocation-free and gets a late trace if it was slow — the
	// handler's own timestamps and the evaluation provenance in qt carry
	// everything a live trace would have stamped.
	tr := srv.tracer.Begin("query", q.TraceID, q.TraceSampled, t0)
	if err != nil {
		tr.Span("decode", t0, t1)
		tr.Finish()
		sess.sendError(wire.CodeBadMessage, err.Error())
		return false
	}
	var qt core.QueryTrace
	results := sess.evaluate(q, &qt)
	t2 := time.Now()
	if tr == nil {
		tr = srv.tracer.Late("query", q.TraceID, t0, t2)
	}
	if tr != nil {
		tr.Span("decode", t0, t1)
		tr.SetAttr("session", sess.idStr)
		if sess.class != "" {
			tr.SetAttr("class", sess.class)
		}
		if bv, bvErr := sess.store.BoxVolume(int(q.Channel), q.T0, q.T1); bvErr == nil {
			tr.SetAttr("box_volume", strconv.FormatInt(bv, 10))
		}
		evalSpan := tr.AddSpan(0, "evaluate", t1, t2)
		fleet.StampQueryTrace(tr, evalSpan, t1, &qt)
		if qt.PlanUsed {
			if qt.Plan.Hit {
				tr.SetAttr("plan_cache", "hit")
			} else {
				tr.SetAttr("plan_cache", "miss")
			}
		}
	}
	srv.metrics.observeQuery(t2.Sub(t1), tr.TraceID())
	for _, r := range results {
		if sess.write(wire.MsgResult, r.Encode()) != nil {
			tr.Finish()
			return false
		}
	}
	ok := sess.flush() == nil
	tr.Span("respond", t2, time.Now())
	tr.Finish()
	return ok
}

// handleFleetQuery answers one cross-session aggregate. Scatter-gather
// and merge run in this session's reader goroutine (the evaluator fans
// out internally); decode failures — including malformed ranges and
// scopes — tear the session down like any other bad message, while
// per-session evaluation failures ride back inside the FleetResult.
func (sess *session) handleFleetQuery(payload []byte) bool {
	srv := sess.srv
	t0 := time.Now()
	fq, err := wire.DecodeFleetQuery(payload)
	t1 := time.Now()
	tr := srv.tracer.Begin("fleet-query", fq.TraceID, fq.TraceSampled, t0)
	tr.Span("decode", t0, t1)
	if err != nil {
		tr.Finish()
		sess.sendError(wire.CodeBadQuery, err.Error())
		return false
	}
	// A live trace gets the scatter's own tree: the workers stitch one
	// child subtree per scoped session under the evaluate span (queue wait,
	// seal, plan hit/compile, dot product), so the whole fan-out reads as
	// one tree on /tracez?id=. A late trace is rebuilt from the root stages
	// alone.
	evalSpan := tr.StartSpan(0, "evaluate")
	res := srv.evaluateFleet(fq, tr, evalSpan)
	t2 := time.Now()
	if tr != nil {
		tr.EndSpan(evalSpan)
	} else if tr = srv.tracer.Late("fleet-query", fq.TraceID, t0, t2); tr != nil {
		tr.Span("decode", t0, t1)
		tr.Span("evaluate", t1, t2)
	}
	if tr != nil {
		tr.SetAttr("session", sess.idStr)
		tr.SetAttr("scope", fq.Scope.String())
		tr.SetAttr("sessions", strconv.Itoa(int(res.Sessions)))
		tr.SetAttr("merged", strconv.Itoa(int(res.Merged)))
	}
	srv.metrics.observeQuery(t2.Sub(t1), tr.TraceID())
	p, err := res.Encode()
	if err != nil {
		tr.Finish()
		sess.sendError(wire.CodeInternal, err.Error())
		return false
	}
	if sess.write(wire.MsgFleetResult, p) != nil {
		tr.Finish()
		return false
	}
	ok := sess.flush() == nil
	tr.Span("respond", t2, time.Now())
	tr.Finish()
	return ok
}

// evaluate answers one query against the live store; a non-nil qt records
// the evaluation's provenance (seal/plan/dot timings) for the handler's
// trace. Errors become a CodeBadQuery result rather than tearing the
// session down.
func (sess *session) evaluate(q wire.Query, qt *core.QueryTrace) []wire.Result {
	ch, arg := int(q.Channel), int(q.Arg)
	r := wire.Result{Kind: q.Kind, Final: true, OK: true}
	err := errNoAnswer
	switch q.Kind {
	case wire.QueryCount:
		r.Value, err = sess.store.CountSamples(ch, q.T0, q.T1)
	case wire.QueryAverage:
		r.Value, r.OK, err = sess.store.AverageValue(ch, q.T0, q.T1)
	case wire.QueryVariance:
		r.Value, r.OK, err = sess.store.VarianceValue(ch, q.T0, q.T1)
	case wire.QueryApproxCount:
		r.Value, r.Bound, err = sess.store.ApproximateCountTraced(ch, q.T0, q.T1, arg, qt)
		r.Coefficients = q.Arg
	case wire.QueryProgressiveCount:
		steps, perr := sess.store.ProgressiveCount(ch, q.T0, q.T1, arg, qt)
		if perr != nil || len(steps) == 0 {
			break
		}
		out := make([]wire.Result, len(steps))
		for i, st := range steps {
			out[i] = wire.Result{
				Kind:         q.Kind,
				Final:        i == len(steps)-1,
				OK:           true,
				Value:        st.Estimate,
				Bound:        st.ErrorBound,
				Coefficients: uint32(st.Coefficients),
			}
		}
		return out
	}
	if err != nil {
		return []wire.Result{{Kind: q.Kind, Final: true, Code: wire.CodeBadQuery}}
	}
	return []wire.Result{r}
}

// errNoAnswer marks a query kind evaluate does not know, or a progressive
// query that produced no step.
var errNoAnswer = errors.New("server: query has no answer")
