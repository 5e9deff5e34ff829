package server

import (
	"testing"
	"time"

	"aims/internal/wire"
)

// onlySession returns the server's one registered session.
func onlySession(t *testing.T, srv *Server) *session {
	t.Helper()
	var got []*session
	srv.sessions.forEach(func(s *session) { got = append(got, s) })
	if len(got) != 1 {
		t.Fatalf("%d sessions registered, want 1", len(got))
	}
	return got[0]
}

// bufferCounts reads a session's payload-buffer accounting.
func bufferCounts(sess *session) (fresh, dropped, spare int) {
	sess.q.mu.Lock()
	defer sess.q.mu.Unlock()
	return sess.q.fresh, sess.q.dropped, sess.q.nspare
}

// wantBuffersBack fails unless, once the session is at rest, every
// payload buffer it allocated has come back exactly once — kept as one of
// at most two spares or let go — and it allocated at most maxFresh. The
// Hello takes one of them: its payload is too small for a batch to reuse.
func wantBuffersBack(t *testing.T, sess *session, maxFresh int) {
	t.Helper()
	settled := func() bool {
		fresh, dropped, spare := bufferCounts(sess)
		return fresh == dropped+spare && spare <= 2
	}
	waitFor(settled)
	fresh, dropped, spare := bufferCounts(sess)
	if fresh != dropped+spare {
		t.Fatalf("%d buffers allocated, %d dropped and %d spare: a buffer was kept or returned twice", fresh, dropped, spare)
	}
	if spare > 2 {
		t.Fatalf("%d spare buffers held at rest, want at most 2", spare)
	}
	if fresh > maxFresh {
		t.Fatalf("%d buffers allocated, want at most %d: a path did not recycle", fresh, maxFresh)
	}
}

// TestSpareBuffersTrimToTwoAtRest: a busy session keeps every buffer that
// comes back, up to maxSpareBufs, and within spareLinger of going quiet
// holds two.
func TestSpareBuffersTrimToTwoAtRest(t *testing.T) {
	q := &newIngestRig(t).q
	var out [][]byte
	for i := 0; i < maxSpareBufs+1; i++ {
		out = append(out, q.buffer(64))
	}
	for _, b := range out {
		q.recycle(b)
	}
	q.mu.Lock()
	kept, dropped := q.nspare, q.dropped
	q.mu.Unlock()
	if kept != maxSpareBufs || dropped != 1 {
		t.Fatalf("%d of %d returned buffers kept, %d let go; want %d kept", kept, len(out), dropped, maxSpareBufs)
	}
	if !waitFor(func() bool {
		q.mu.Lock()
		defer q.mu.Unlock()
		return q.nspare == 2 && q.fresh == q.dropped+q.nspare
	}) {
		t.Fatalf("%d spares still held long after the session went quiet, want 2", q.nspare)
	}
	// Busy again: the trim re-arms.
	for _, b := range [][]byte{q.buffer(64), q.buffer(64), q.buffer(64), q.buffer(64)} {
		q.recycle(b)
	}
	if !waitFor(func() bool {
		q.mu.Lock()
		defer q.mu.Unlock()
		return q.nspare == 2
	}) {
		t.Fatalf("%d spares held after the second burst, want 2", q.nspare)
	}
}

// TestPayloadBufferAcceptedBurst: a pipelined burst of 64 accepted batches
// hands each buffer from reader to appender and back, and the session at
// rest keeps no more than two of them.
func TestPayloadBufferAcceptedBurst(t *testing.T) {
	srv, addr := startServer(t, Config{Store: testStoreCfg()})
	rs := dialRaw(t, addr, "", 2)
	sess := onlySession(t, srv)
	for seq := 0; seq < 64*16; seq += 16 {
		rs.writeBatch(seq, 16, 2)
	}
	rs.write(wire.MsgFlush, nil)
	rs.flush()
	for seq := 0; seq < 64*16; seq += 16 {
		rs.expectAck(seq, wire.CodeOK)
	}
	if stored := rs.expectFlushAck(); stored != 64*16 {
		t.Fatalf("flush reports %d stored, want %d", stored, 64*16)
	}
	wantBuffersBack(t, sess, 1+64)
}

// TestPayloadBufferShed: under PolicyShed a batch that does not fit is
// refused and its buffer goes straight back, while the appender still
// holds the admitted ones.
func TestPayloadBufferShed(t *testing.T) {
	cfg, stall := stalledConfig(t, Config{Policy: PolicyShed, QueueFrames: 64})
	srv, addr := startServer(t, cfg)
	rs := dialRaw(t, addr, "buf-shed", 2)
	sess := onlySession(t, srv)
	stallOnFirstBatch(t, rs, stall)
	for seq := 16; seq < 160; seq += 16 {
		rs.writeBatch(seq, 16, 2)
	}
	rs.flush()
	for seq := 16; seq < 160; seq += 16 {
		code := wire.CodeOK
		if seq >= 80 {
			code = wire.CodeShed
		}
		rs.expectAck(seq, code)
	}
	// The Hello, the first batch and the four queued behind it account for
	// at most six buffers; the five shed batches share one between them.
	if fresh, _, _ := bufferCounts(sess); fresh > 7 {
		t.Fatalf("%d buffers allocated while shedding, want at most 7", fresh)
	}
	stall.resume()
	rs.write(wire.MsgFlush, nil)
	rs.flush()
	if stored := rs.expectFlushAck(); stored != 80 {
		t.Fatalf("flush reports %d stored, want 80", stored)
	}
	wantBuffersBack(t, sess, 7)
}

// TestPayloadBufferDuplicateAndTrimmed: a batch wholly below the watermark
// is acknowledged and its buffer recycled at once; a straddling one is
// trimmed to its fresh suffix and its buffer rides to the appender.
func TestPayloadBufferDuplicateAndTrimmed(t *testing.T) {
	srv, addr := startServer(t, Config{Store: testStoreCfg()})
	rs := dialRaw(t, addr, "", 2)
	sess := onlySession(t, srv)
	rs.writeBatch(0, 16, 2)
	rs.writeBatch(0, 16, 2)  // duplicate
	rs.writeBatch(8, 16, 2)  // trimmed to [16,24)
	rs.writeBatch(24, 16, 2) // contiguous
	rs.write(wire.MsgFlush, nil)
	rs.flush()
	rs.expectAck(0, wire.CodeOK)
	rs.expectAck(0, wire.CodeDuplicate)
	rs.expectAck(8, wire.CodeOK)
	rs.expectAck(24, wire.CodeOK)
	if stored := rs.expectFlushAck(); stored != 40 {
		t.Fatalf("flush reports %d stored, want 40", stored)
	}
	wantBuffersBack(t, sess, 1+4)
	// The trimmed batch stored exactly its suffix: frames [0,40) once each.
	n, err := sess.store.CountSamples(0, 0, 1e9)
	if err != nil || n != 40 {
		t.Fatalf("store counts %v samples (err %v), want 40", n, err)
	}
}

// TestPayloadBufferGapError: a batch ahead of the watermark tears the
// session down, and its buffer is returned on the way out.
func TestPayloadBufferGapError(t *testing.T) {
	srv, addr := startServer(t, Config{Store: testStoreCfg()})
	rs := dialRaw(t, addr, "", 2)
	sess := onlySession(t, srv)
	rs.writeBatch(0, 16, 2)
	rs.writeBatch(32, 16, 2)
	rs.flush()
	rs.expectAck(0, wire.CodeOK)
	rs.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if typ, _, err := wire.ReadMessage(rs.br); err != nil || typ != wire.MsgError {
		t.Fatalf("got msg type %d (err %v) for a gapped batch, want an error", typ, err)
	}
	if !waitFor(func() bool { return srv.sessions.len() == 0 }) {
		t.Fatal("session survived a gapped batch")
	}
	wantBuffersBack(t, sess, 1+2)
}

// TestPayloadBufferControlMessages: flushes, queries and pings are read
// into the session's recycled buffer, and each gives it back before the
// next message is read: a long run of them allocates nothing new.
func TestPayloadBufferControlMessages(t *testing.T) {
	srv, addr := startServer(t, Config{Store: testStoreCfg()})
	rs := dialRaw(t, addr, "", 2)
	sess := onlySession(t, srv)
	rs.writeBatch(0, 16, 2)
	rs.write(wire.MsgFlush, nil)
	rs.flush()
	rs.expectAck(0, wire.CodeOK)
	rs.expectFlushAck()
	for i := 0; i < 20; i++ {
		rs.write(wire.MsgQuery, wire.Query{Kind: wire.QueryCount, T0: 0, T1: 1}.Encode())
		rs.write(wire.MsgPing, wire.Ping{Nonce: uint64(i)}.Encode())
		rs.write(wire.MsgFlush, nil)
	}
	rs.flush()
	for i := 0; i < 20; i++ {
		r, err := wire.DecodeResult(rs.expect(wire.MsgResult))
		if err != nil || r.Value != 16 {
			t.Fatalf("query %d: %+v err=%v, want COUNT 16", i, r, err)
		}
		p, err := wire.DecodePong(rs.expect(wire.MsgPong))
		if err != nil || p.Nonce != uint64(i) {
			t.Fatalf("ping %d: pong %+v err=%v", i, p, err)
		}
		rs.expectFlushAck()
	}
	wantBuffersBack(t, sess, 1+1)
}

// TestPayloadBufferOversizedNotKept: a message larger than maxSpareBytes is
// served from a buffer of its own, which is let go once used rather than
// pinned as a spare for the life of the session.
func TestPayloadBufferOversizedNotKept(t *testing.T) {
	srv, addr := startServer(t, Config{Store: testStoreCfg()})
	rs := dialRaw(t, addr, "", 2)
	sess := onlySession(t, srv)
	const frames = maxSpareBytes/24 + 1 // 24-byte frame records at 2 channels
	rs.writeBatch(0, frames, 2)
	rs.write(wire.MsgFlush, nil)
	rs.flush()
	rs.expectAck(0, wire.CodeOK)
	if stored := rs.expectFlushAck(); stored != frames {
		t.Fatalf("flush reports %d stored, want %d", stored, frames)
	}
	wantBuffersBack(t, sess, 1+1)
	sess.q.mu.Lock()
	defer sess.q.mu.Unlock()
	if sess.q.dropped != 1 {
		t.Fatalf("%d buffers let go, want the oversized one", sess.q.dropped)
	}
	for _, b := range sess.q.spares[:sess.q.nspare] {
		if cap(b) > maxSpareBytes {
			t.Fatalf("a %d-byte buffer is kept as a spare", cap(b))
		}
	}
}
