package server

import (
	"slices"
	"testing"
	"time"

	"aims/internal/core"
	"aims/internal/wire"
)

// onlySession returns the server's one registered session.
func onlySession(t *testing.T, srv *Server) *session {
	t.Helper()
	got := srv.liveSessions()
	if len(got) != 1 {
		t.Fatalf("%d sessions registered, want 1", len(got))
	}
	return got[0]
}

// bufferCounts reads a session's payload-buffer accounting: buffers drawn
// from the server's pool and buffers handed back.
func bufferCounts(sess *session) (taken, returned int64) {
	return sess.q.taken.Load(), sess.q.returned.Load()
}

// wantBuffersBack fails unless, once the session is at rest, every payload
// buffer it drew has come back exactly once: it holds none, and none was
// handed back twice — which, with one pool shared by every session, would
// let two sessions' messages share one buffer.
func wantBuffersBack(t *testing.T, sess *session) {
	t.Helper()
	waitFor(func() bool {
		taken, returned := bufferCounts(sess)
		return taken == returned
	})
	if taken, returned := bufferCounts(sess); taken != returned {
		t.Fatalf("%d buffers taken and %d returned: a buffer was kept or returned twice", taken, returned)
	}
}

// TestPayloadBufferPoolSizeClasses: a buffer has exactly the payload's
// length and a power-of-two capacity no more than twice it (at least
// minSpareBytes); a buffer bigger than maxSpareBytes is never pooled.
func TestPayloadBufferPoolSizeClasses(t *testing.T) {
	var p payloadPool
	for _, n := range []int{1, minSpareBytes - 1, minSpareBytes, minSpareBytes + 1, 4000, 4096, 65535, maxSpareBytes - 1, maxSpareBytes} {
		b := p.get(n)
		c := cap(*b)
		if len(*b) != n || c&(c-1) != 0 || c < minSpareBytes || c < n || (c >= 2*n && c > minSpareBytes) {
			t.Fatalf("get(%d) = len %d cap %d, want len %d in the smallest class that holds it", n, len(*b), c, n)
		}
		p.put(b)
	}
	big := p.get(maxSpareBytes + 1)
	if cap(*big) != maxSpareBytes+1 {
		t.Fatalf("an oversized payload got a %d-byte buffer, want one of its own", cap(*big))
	}
	p.put(big)
	for k := range p.classes {
		for {
			b, _ := p.classes[k].Get().(*[]byte)
			if b == nil {
				break
			}
			if cap(*b) != minSpareBytes<<k {
				t.Fatalf("class %d (%d B) pooled a %d-byte buffer", k, minSpareBytes<<k, cap(*b))
			}
		}
	}
}

// TestPayloadBufferNoneHeldAtRest: sessions that preload one after another
// each hold no payload buffer once their batches are stored — the pool, not
// the session, keeps what is worth reusing.
func TestPayloadBufferNoneHeldAtRest(t *testing.T) {
	srv, addr := startServer(t, Config{Store: testStoreCfg()})
	var sessions []*session
	for i := 0; i < 3; i++ {
		rs := dialRaw(t, addr, "", 2)
		for seq := 0; seq < 16*16; seq += 16 {
			rs.writeBatch(seq, 16, 2)
		}
		rs.write(wire.MsgFlush, nil)
		rs.flush()
		for seq := 0; seq < 16*16; seq += 16 {
			rs.expectAck(seq, wire.CodeOK)
		}
		if stored := rs.expectFlushAck(); stored != 16*16 {
			t.Fatalf("session %d: flush reports %d stored, want %d", i, stored, 16*16)
		}
		for _, s := range srv.liveSessions() {
			if !slices.Contains(sessions, s) {
				sessions = append(sessions, s)
			}
		}
		for _, sess := range sessions {
			wantBuffersBack(t, sess)
		}
	}
	if len(sessions) != 3 {
		t.Fatalf("%d sessions registered, want 3", len(sessions))
	}
}

// TestPayloadBufferAcceptedBurst: a pipelined burst of 64 accepted batches
// hands each buffer from reader to appender and back to the pool, and the
// session at rest holds none of them.
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
	wantBuffersBack(t, sess)
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
	// The first batch is stored and its buffer back; the four queued
	// behind the stalled appender hold theirs, and each shed batch gave
	// its own back at once.
	if taken, returned := bufferCounts(sess); taken-returned != 4 {
		t.Fatalf("%d buffers held while shedding, want the 4 of the queued batches", taken-returned)
	}
	stall.resume()
	rs.write(wire.MsgFlush, nil)
	rs.flush()
	if stored := rs.expectFlushAck(); stored != 80 {
		t.Fatalf("flush reports %d stored, want 80", stored)
	}
	wantBuffersBack(t, sess)
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
	wantBuffersBack(t, sess)
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
	if !waitFor(func() bool { return liveCount(srv) == 0 }) {
		t.Fatal("session survived a gapped batch")
	}
	wantBuffersBack(t, sess)
}

// TestPayloadBufferControlMessages: queries and pings are read into pooled
// buffers, each given back once the message is answered; a flush has an
// empty payload and takes none.
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
	wantBuffersBack(t, sess)
	// The Hello, the batch and its bins record, 20 queries and 20 pings.
	if taken, _ := bufferCounts(sess); taken != 1+2+20+20 {
		t.Fatalf("%d buffers taken, want one per non-empty message and one per binned batch (43)", taken)
	}
}

// TestPayloadBufferOversizedNotKept: a message larger than maxSpareBytes is
// served from a buffer of its own, which is let go once used rather than
// pooled.
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
	wantBuffersBack(t, sess)
	for k := range srv.payloads.classes {
		for {
			b, _ := srv.payloads.classes[k].Get().(*[]byte)
			if b == nil {
				break
			}
			if cap(*b) > maxSpareBytes {
				t.Fatalf("a %d-byte buffer is pooled", cap(*b))
			}
		}
	}
}

// TestPayloadBufferConcurrentSessionsKeepTheirFrames: eight sessions stream
// distinct frame patterns at once, in batches whose sizes span several
// pool classes, so buffers pass from session to session through the pool.
// A buffer handed out while another session still read it would mix their
// frames; each store's exact answers must equal a store fed its own frames.
func TestPayloadBufferConcurrentSessionsKeepTheirFrames(t *testing.T) {
	const sessions, channels, frames = 8, 4, 3000
	cfg := Config{Store: testStoreCfg()}
	srv, addr := startServer(t, cfg)
	mins, maxs := ranges(channels)
	clients := make([]*wire.Client, sessions)
	for i := range clients {
		c, err := wire.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Abort() })
		if _, err := c.Hello(wire.Hello{Rate: 100, HorizonTicks: frames, Mins: mins, Maxs: maxs}); err != nil {
			t.Fatal(err)
		}
		clients[i] = c
	}
	errs := make(chan error, sessions)
	for i, c := range clients {
		go func() {
			all := clientFrames(i, frames, channels)
			sizes := []int{7, 16, 60, 130, 250} // 0.3 KiB to 10 KiB payloads
			for off, k := 0, 0; off < len(all); k++ {
				end := min(off+sizes[(i+k)%len(sizes)], len(all))
				if err := c.SendBatch(all[off:end]); err != nil {
					errs <- err
					return
				}
				off = end
			}
			_, err := c.Flush()
			errs <- err
		}()
	}
	for range clients {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for i, c := range clients {
		scfg := cfg.Store
		scfg.Rate, scfg.HorizonTicks = 100, frames
		want, err := core.NewLiveStore(mins, maxs, scfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := want.AppendFrames(clientFrames(i, frames, channels)); err != nil {
			t.Fatal(err)
		}
		for ch := 0; ch < channels; ch++ {
			for _, span := range [][2]float64{{0, 30}, {3.5, 17.25}, {21, 22}} {
				q := wire.Query{Channel: uint16(ch), T0: span[0], T1: span[1]}
				wantN, _ := want.CountSamples(ch, span[0], span[1])
				wantAvg, _, _ := want.AverageValue(ch, span[0], span[1])
				wantVar, _, _ := want.VarianceValue(ch, span[0], span[1])
				for kind, w := range map[wire.QueryKind]float64{
					wire.QueryCount: wantN, wire.QueryAverage: wantAvg, wire.QueryVariance: wantVar,
				} {
					q.Kind = kind
					r, err := c.Query(q)
					if err != nil || r.Value != w {
						t.Fatalf("session %d channel %d %v kind %d: got %v (err %v), want %v",
							i, ch, span, kind, r.Value, err, w)
					}
				}
			}
		}
	}
	for _, sess := range srv.liveSessions() {
		wantBuffersBack(t, sess)
	}
}
