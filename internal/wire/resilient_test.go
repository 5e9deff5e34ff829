package wire

import (
	"context"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"aims/internal/stream"
	"aims/internal/transport"
)

func ringFrames(n int, base float64) []stream.Frame {
	out := make([]stream.Frame, n)
	for i := range out {
		out[i] = stream.Frame{T: base + float64(i), Values: []float64{base, -base}}
	}
	return out
}

// TestReplayRingCopiesFrames pins the ownership contract: the ring must
// hold private copies, because devices reuse their batch buffers.
func TestReplayRingCopiesFrames(t *testing.T) {
	rc := &ResilientClient{cfg: ResilientConfig{ReplayFrames: 100}.withDefaults()}
	batch := ringFrames(4, 1)
	rc.buffer(0, batch)
	batch[2].T = -999
	batch[2].Values[0] = -999
	if got := rc.ring[0].frames[2]; got.T != 3 || got.Values[0] != 1 {
		t.Fatalf("ring aliases the caller's batch: %+v", got)
	}
	if rc.ring[0].end() != 4 {
		t.Fatalf("entry end = %d, want 4", rc.ring[0].end())
	}
}

// TestReplayRingEvictsOnlyAckedPrefix fills the ring past its frame budget
// and checks eviction: acked entries go oldest-first, but entries still
// outstanding on the wire are pinned — they are the only copy left.
func TestReplayRingEvictsOnlyAckedPrefix(t *testing.T) {
	rc := &ResilientClient{cfg: ResilientConfig{ReplayFrames: 10}.withDefaults()}

	// No live client: every entry counts as acked, so the budget rules.
	for i := 0; i < 3; i++ {
		rc.buffer(uint64(i*4), ringFrames(4, float64(i)))
	}
	if len(rc.ring) != 2 || rc.ringFrames != 8 {
		t.Fatalf("ring = %d entries / %d frames, want 2 / 8", len(rc.ring), rc.ringFrames)
	}
	if rc.ring[0].start != 4 {
		t.Fatalf("oldest surviving entry starts at %d, want 4 (evict oldest-first)", rc.ring[0].start)
	}

	// All but one entry outstanding: the budget may only claim the single
	// acked entry, then eviction must stop even though the ring is over.
	rc = &ResilientClient{cfg: ResilientConfig{ReplayFrames: 10}.withDefaults()}
	rc.c = &Client{outstanding: 2}
	for i := 0; i < 3; i++ {
		rc.buffer(uint64(i*4), ringFrames(4, float64(i)))
	}
	if len(rc.ring) != 2 || rc.ring[0].start != 4 {
		t.Fatalf("ring after one eviction = %d entries, oldest %d; want 2 entries from 4",
			len(rc.ring), rc.ring[0].start)
	}
	rc.c.outstanding = 3
	rc.buffer(12, ringFrames(4, 3))
	if len(rc.ring) != 3 {
		t.Fatalf("ring evicted an outstanding entry: %d entries, want 3", len(rc.ring))
	}
}

// TestResumeTerminalOnForeignWatermark covers the name-collision guard: a
// Welcome watermark ahead of everything this client ever sent means the
// session name belongs to someone else's stream, and retrying can only
// make it worse.
func TestResumeTerminalOnForeignWatermark(t *testing.T) {
	rc := &ResilientClient{cfg: ResilientConfig{}.withDefaults(), nextSeq: 5}
	err := rc.resumeLocked(nil, Welcome{AckSeq: 9})
	if !IsTerminal(err) {
		t.Fatalf("watermark ahead of stream: err = %v, want terminal", err)
	}
	if !strings.Contains(err.Error(), "collision") {
		t.Fatalf("terminal error should name the likely cause: %v", err)
	}
}

// TestResumeTerminalOnEvictedGap covers the bounded-buffer guard: if the
// server's watermark fell below the oldest buffered frame, the gap is
// unreplayable and the client must fail loudly rather than drop data.
func TestResumeTerminalOnEvictedGap(t *testing.T) {
	rc := &ResilientClient{cfg: ResilientConfig{}.withDefaults(), nextSeq: 100}
	rc.ring = []replayEntry{{start: 50, frames: ringFrames(10, 0)}}
	err := rc.resumeLocked(nil, Welcome{AckSeq: 40})
	if !IsTerminal(err) {
		t.Fatalf("gap below buffer: err = %v, want terminal", err)
	}
	if !strings.Contains(err.Error(), "ReplayFrames") {
		t.Fatalf("terminal error should point at the buffer knob: %v", err)
	}
}

// gatedDialer delegates its first dial to the real transport, then
// blackholes every later attempt until the dial context expires — a hang
// that only the DialTimeout deadline can break.
type gatedDialer struct {
	mu      sync.Mutex
	dials   int
	blocked int
}

func (d *gatedDialer) DialContext(ctx context.Context, addr string) (net.Conn, error) {
	d.mu.Lock()
	d.dials++
	first := d.dials == 1
	if !first {
		d.blocked++
	}
	d.mu.Unlock()
	if first {
		return transport.DialContext(ctx, addr)
	}
	<-ctx.Done()
	return nil, ctx.Err()
}

func (d *gatedDialer) counts() (dials, blocked int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.dials, d.blocked
}

// TestInjectedDialerAndDialTimeout proves the two plumbing contracts the
// transport refactor added to ResilientConfig: an injected Dialer carries
// every connection (the initial dial and each reconnect attempt), and
// DialTimeout bounds each attempt so a blackholed dial cannot wedge the
// reconnect loop — it burns exactly its slot and moves on to the attempt
// budget.
func TestInjectedDialerAndDialTimeout(t *testing.T) {
	const dialTimeout = 25 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		srv := NewClient(c)
		if _, payload, err := srv.read(); err == nil {
			if _, err := DecodeHello(payload); err == nil {
				srv.send(MsgWelcome, Welcome{SessionID: 1, Code: CodeOK}.Encode())
				srv.flush()
			}
		}
		c.Close()
	}()

	d := &gatedDialer{}
	rc, _, err := DialResilient(ResilientConfig{
		Addr:        ln.Addr().String(),
		Dialer:      d,
		DialTimeout: dialTimeout,
		Timeout:     time.Second,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  2 * time.Millisecond,
		MaxAttempts: 2,
		Seed:        31,
		Logf:        t.Logf,
	}, Hello{Rate: 100, Name: "gated", Mins: []float64{0, 0}, Maxs: []float64{1, 1}})
	if err != nil {
		t.Fatalf("initial dial through injected dialer: %v", err)
	}
	<-done
	ln.Close()

	start := time.Now()
	if err := rc.SendBatch(ringFrames(4, 0)); err != nil && !IsTerminal(err) {
		t.Fatalf("send into dead server: unexpected error class: %v", err)
	}
	_, err = rc.Flush()
	elapsed := time.Since(start)
	if !IsTerminal(err) {
		t.Fatalf("flush with blackholed dialer: err = %v, want terminal", err)
	}
	if !strings.Contains(err.Error(), "2 attempts") {
		t.Fatalf("terminal error should report the attempt budget: %v", err)
	}
	dials, blocked := d.counts()
	if dials != 3 || blocked != 2 {
		t.Fatalf("dialer saw %d dials (%d blackholed), want 3 (2): injected dialer not used everywhere", dials, blocked)
	}
	// Each blackholed attempt is released only by its DialTimeout deadline,
	// so two attempts cannot finish before 2x the bound — and the bound in
	// turn keeps the whole ordeal far under the 2s MaxBackoff default that
	// DialTimeout would have inherited.
	if elapsed < 2*dialTimeout {
		t.Fatalf("2 blackholed attempts returned in %s, before 2x DialTimeout: the bound is not plumbed", elapsed)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("giving up took %s; DialTimeout not honoured", elapsed)
	}
	rc.Abort()
}

// TestReconnectGivesUpAfterMaxAttempts registers against a throwaway
// listener, kills it, and checks the reconnect loop surfaces a terminal
// error after exactly MaxAttempts dials — and that the capped backoff
// keeps the whole ordeal brief.
func TestReconnectGivesUpAfterMaxAttempts(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		// Speak just enough protocol to complete the handshake, then die.
		srv := NewClient(c) // reuse the framing helpers for the fake
		_, payload, err := srv.read()
		if err != nil {
			c.Close()
			return
		}
		if _, err := DecodeHello(payload); err != nil {
			c.Close()
			return
		}
		srv.send(MsgWelcome, Welcome{SessionID: 1, Code: CodeOK}.Encode())
		srv.flush()
		c.Close()
	}()

	rc, _, err := DialResilient(ResilientConfig{
		Addr:        ln.Addr().String(),
		Timeout:     time.Second,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  4 * time.Millisecond,
		// The dial timeout defaults to MaxBackoff; 4 ms can pass before the
		// initial dial and Hello complete on a loaded host. The later
		// dials are refused at once, so this loosens nothing they test.
		DialTimeout: time.Second,
		MaxAttempts: 3,
		Seed:        21,
		Logf:        t.Logf,
	}, Hello{Rate: 100, Name: "doomed", Mins: []float64{0, 0}, Maxs: []float64{1, 1}})
	if err != nil {
		t.Fatalf("initial dial: %v", err)
	}
	<-done
	ln.Close() // further dials: connection refused

	start := time.Now()
	// A small batch parks in the write buffer without touching the socket;
	// the flush barrier is what discovers the link is gone.
	if err := rc.SendBatch(ringFrames(4, 0)); err != nil && !IsTerminal(err) {
		t.Fatalf("send into dead server: unexpected error class: %v", err)
	}
	_, err = rc.Flush()
	elapsed := time.Since(start)
	if !IsTerminal(err) {
		t.Fatalf("flush into dead server: err = %v, want terminal", err)
	}
	if !strings.Contains(err.Error(), "3 attempts") {
		t.Fatalf("terminal error should report the attempt budget: %v", err)
	}
	// 3 attempts against a closed port: jittered sleeps bounded by
	// 1+2+4 ms plus dial overhead — far under a second.
	if elapsed > 5*time.Second {
		t.Fatalf("giving up took %s; backoff cap not honoured", elapsed)
	}
	rc.Abort()
}
