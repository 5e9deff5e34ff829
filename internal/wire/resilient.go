package wire

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"aims/internal/stream"
	"aims/internal/transport"
)

// ResilientClient wraps Client with everything a device on a flaky link
// needs: I/O deadlines on every operation, automatic re-dial with capped
// exponential backoff and full jitter, session resume by name, and a
// bounded replay buffer so frames in flight across a disconnect are
// re-sent at their original offsets — the server's watermark dedup
// turns that at-least-once replay into exactly-once append.
//
// The replay ring retains batches even after the server acknowledges
// them, because an ack only proves the frame was enqueued — a server
// killed before journaling it loses it, and on resume the Welcome AckSeq
// (the durable watermark) can sit below the last ack. Acked entries are
// evicted oldest-first only when the ring exceeds its frame budget, so as
// long as the budget covers the server's queue-plus-journal lag, recovery
// is lossless; if a resume's AckSeq falls below the oldest buffered
// frame, the gap is unreplayable and the client fails with a terminal
// error instead of silently dropping data.
//
// Unlike Client, a ResilientClient is safe for one sender goroutine plus
// its own background heartbeat: all connection state is mutex-guarded.
type ResilientClient struct {
	cfg ResilientConfig

	mu      sync.Mutex
	c       *Client
	hello   Hello
	greeted bool
	broken  bool
	closed  bool

	ring       []replayEntry
	ringFrames int
	nextSeq    uint64 // client-stream offset of the next new frame

	lastIO     time.Time
	pingStop   chan struct{}
	pingDone   chan struct{}
	pingOnce   sync.Once
	reconnects uint64
	replayed   uint64
	outages    []time.Duration

	rng *rand.Rand
}

// replayEntry is one buffered batch: its absolute first-frame offset and
// a private copy of the frames (callers reuse their batch buffers).
type replayEntry struct {
	start  uint64
	frames []stream.Frame
}

func (e replayEntry) end() uint64 { return e.start + uint64(len(e.frames)) }

// ResilientConfig shapes a ResilientClient.
type ResilientConfig struct {
	// Addr is the server endpoint (bare host:port, tcp:// or ws://),
	// re-dialed on every reconnect.
	Addr string
	// Dialer opens each (re)connection; nil uses the endpoint-scheme
	// default (transport.Net). Tests inject fault or counting dialers.
	Dialer transport.Dialer
	// DialTimeout bounds each connect attempt, transport handshake
	// included (default MaxBackoff — the reconnect loop's pacing budget —
	// so a blackholed address cannot stall an attempt past its backoff
	// slot).
	DialTimeout time.Duration
	// Window is the pipelining window of the underlying Client.
	Window int
	// Timeout bounds every socket read/write (default 10s).
	Timeout time.Duration
	// Heartbeat is the idle-ping interval of the background prober; once a
	// ping reaches the server, it holds the session to the heartbeat
	// window instead of the idle timeout. <= 0 disables the prober.
	Heartbeat time.Duration
	// BaseBackoff seeds the reconnect backoff (default 50ms); each failed
	// attempt doubles the cap until MaxBackoff, and the actual sleep is
	// uniform in [0, cap] (full jitter).
	BaseBackoff time.Duration
	// MaxBackoff caps the reconnect backoff (default 2s).
	MaxBackoff time.Duration
	// MaxAttempts bounds dial attempts per outage (default 10; negative
	// means unlimited).
	MaxAttempts int
	// ReplayFrames bounds the replay ring (default 16384 frames — twice a
	// default server queue, so acked-but-unjournaled frames stay covered).
	ReplayFrames int
	// Seed makes the backoff jitter deterministic in tests (0 seeds from
	// the global source).
	Seed int64
	// Logf receives reconnect lifecycle logs (nil discards them).
	Logf func(format string, args ...interface{})
}

func (c ResilientConfig) withDefaults() ResilientConfig {
	if c.Timeout <= 0 {
		c.Timeout = 10 * time.Second
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 50 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 2 * time.Second
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = c.MaxBackoff
	}
	if c.MaxAttempts == 0 {
		c.MaxAttempts = 10
	}
	if c.ReplayFrames <= 0 {
		c.ReplayFrames = 16384
	}
	if c.Logf == nil {
		c.Logf = func(string, ...interface{}) {}
	}
	return c
}

// TerminalError is a non-retryable client failure: reconnecting cannot
// help, and retrying would either lose data silently or loop forever.
type TerminalError struct {
	Reason string
	Err    error
}

// Error implements error.
func (e *TerminalError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("wire: terminal: %s: %v", e.Reason, e.Err)
	}
	return "wire: terminal: " + e.Reason
}

// Unwrap exposes the underlying cause.
func (e *TerminalError) Unwrap() error { return e.Err }

// IsTerminal reports whether err is a non-retryable client failure.
func IsTerminal(err error) bool {
	var te *TerminalError
	return errors.As(err, &te)
}

// DialResilient connects, registers the session, and starts the heartbeat
// prober. The Hello's Name is the resume key: every reconnect re-Hellos
// under it and the server hands back its append watermark.
func DialResilient(cfg ResilientConfig, h Hello) (*ResilientClient, Welcome, error) {
	cfg = cfg.withDefaults()
	seed := cfg.Seed
	if seed == 0 {
		seed = rand.Int63()
	}
	rc := &ResilientClient{cfg: cfg, hello: h, rng: rand.New(rand.NewSource(seed))}
	c, w, err := rc.dialOnce()
	if err != nil {
		return nil, Welcome{}, err
	}
	rc.c = c
	rc.greeted = true
	rc.nextSeq = w.AckSeq
	rc.lastIO = time.Now()
	if cfg.Heartbeat > 0 {
		rc.pingStop = make(chan struct{})
		rc.pingDone = make(chan struct{})
		go rc.pingLoop()
	}
	return rc, w, nil
}

// dialOnce dials and registers without retry (the initial connect; the
// reconnect loop wraps it with backoff).
func (rc *ResilientClient) dialOnce() (*Client, Welcome, error) {
	ctx, cancel := context.WithTimeout(context.Background(), rc.cfg.DialTimeout)
	defer cancel()
	d := rc.cfg.Dialer
	if d == nil {
		d = transport.Net
	}
	conn, err := d.DialContext(ctx, rc.cfg.Addr)
	if err != nil {
		return nil, Welcome{}, err
	}
	c := NewClient(conn)
	c.Window = rc.cfg.Window
	c.Timeout = rc.cfg.Timeout
	w, err := c.Hello(rc.hello)
	if err != nil {
		c.Abort()
		return nil, Welcome{}, err
	}
	return c, w, nil
}

// Reconnects returns how many times the client re-established the link.
func (rc *ResilientClient) Reconnects() uint64 {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.reconnects
}

// ReplayedBatches returns how many buffered batches resume replays re-sent.
func (rc *ResilientClient) ReplayedBatches() uint64 {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.replayed
}

// DupBatches returns how many replayed batches the server dropped as
// already held (the exactly-once dedup at work).
func (rc *ResilientClient) DupBatches() uint64 {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.c == nil {
		return 0
	}
	return rc.c.DupBatches()
}

// Outages returns the recovery latency of every completed reconnect: the
// wall time from first failed operation to replay completion.
func (rc *ResilientClient) Outages() []time.Duration {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	out := make([]time.Duration, len(rc.outages))
	copy(out, rc.outages)
	return out
}

// pingLoop probes the link whenever it has been idle for a heartbeat
// interval. A failed ping only marks the connection broken — the next
// operation (or the next ping) triggers the reconnect, so the prober
// never races a concurrent sender's recovery.
func (rc *ResilientClient) pingLoop() {
	defer close(rc.pingDone)
	t := time.NewTicker(rc.cfg.Heartbeat)
	defer t.Stop()
	for {
		select {
		case <-rc.pingStop:
			return
		case <-t.C:
		}
		rc.mu.Lock()
		if rc.closed {
			rc.mu.Unlock()
			return
		}
		if rc.broken || rc.c == nil || time.Since(rc.lastIO) < rc.cfg.Heartbeat {
			rc.mu.Unlock()
			continue
		}
		if err := rc.c.Ping(); err != nil {
			rc.cfg.Logf("wire: heartbeat failed: %v", err)
			rc.broken = true
		} else {
			rc.lastIO = time.Now()
		}
		rc.mu.Unlock()
	}
}

// buffer copies one batch into the replay ring at the given offset,
// evicting acked entries oldest-first past the frame budget.
func (rc *ResilientClient) buffer(start uint64, frames []stream.Frame) {
	cp := make([]stream.Frame, len(frames))
	flat := make([]float64, 0, len(frames)*len(frames[0].Values))
	for i, f := range frames {
		cp[i].T = f.T
		flat = append(flat, f.Values...)
		cp[i].Values = flat[len(flat)-len(f.Values):]
	}
	rc.ring = append(rc.ring, replayEntry{start: start, frames: cp})
	rc.ringFrames += len(cp)
	// Entries past the tail's outstanding batches are acked; only those may
	// be evicted (an unacked batch must stay replayable at any cost).
	for rc.ringFrames > rc.cfg.ReplayFrames {
		acked := len(rc.ring)
		if rc.c != nil {
			acked -= rc.c.Outstanding()
		}
		if acked <= 0 {
			break
		}
		rc.ringFrames -= len(rc.ring[0].frames)
		rc.ring = rc.ring[1:]
	}
}

// SendBatch buffers and streams one batch, transparently reconnecting and
// replaying on link failure. Frames are copied; the caller may reuse the
// slice.
func (rc *ResilientClient) SendBatch(frames []stream.Frame) error {
	if len(frames) == 0 {
		return nil
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.closed {
		return &TerminalError{Reason: "client closed"}
	}
	start := rc.nextSeq
	rc.buffer(start, frames)
	rc.nextSeq = start + uint64(len(frames))
	return rc.retryLocked("send", func(c *Client) error {
		// A reconnect replays the ring — this batch included — so sending it
		// again here would be redundant (though harmless: the server would
		// dedup it). Skip when the watermark already advanced past it.
		if c.NextSeq() >= rc.nextSeq {
			return nil
		}
		if err := c.SendBatchAt(start, frames); err != nil {
			return err
		}
		c.SetNextSeq(rc.nextSeq)
		return nil
	})
}

// Flush drains the pipeline to a durable barrier, reconnecting on failure.
func (rc *ResilientClient) Flush() (stored uint64, err error) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	err = rc.retryLocked("flush", func(c *Client) (err error) {
		stored, err = c.Flush()
		return err
	})
	return stored, err
}

// Query evaluates one aggregate, reconnecting and retrying on link
// failure (queries are read-only, so a retry is always safe).
func (rc *ResilientClient) Query(q Query) (r Result, err error) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	var answer error // the server answered: the link is fine, the query is bad
	if err = rc.retryLocked("query", func(c *Client) (err error) {
		if r, err = c.Query(q); errors.As(err, new(ErrMsg)) {
			answer, err = err, nil
		}
		return err
	}); err != nil {
		return r, err
	}
	return r, answer
}

// Close drains and ends the session; the connection is not re-established
// afterwards, whether or not the drain succeeded.
func (rc *ResilientClient) Close() (CloseAck, error) {
	rc.mu.Lock()
	defer func() {
		rc.mu.Unlock()
		rc.stopPinger()
	}()
	if rc.closed {
		return CloseAck{}, nil
	}
	var ack CloseAck
	err := rc.retryLocked("close", func(c *Client) (err error) {
		ack, err = c.Close()
		return err
	})
	rc.closed = true
	return ack, err
}

// retryLocked runs f on the link until it succeeds, reconnecting and
// replaying the ring after each failure; it gives up only when reconnecting
// does. op names the operation in the logs. Callers hold rc.mu.
func (rc *ResilientClient) retryLocked(op string, f func(*Client) error) error {
	for {
		if err := rc.ensureLinkLocked(); err != nil {
			return err
		}
		err := f(rc.c)
		if err == nil {
			rc.lastIO = time.Now()
			return nil
		}
		rc.cfg.Logf("wire: %s failed, reconnecting: %v", op, err)
		rc.broken = true
	}
}

// Abort tears the link down without the drain handshake.
func (rc *ResilientClient) Abort() {
	rc.mu.Lock()
	rc.closed = true
	if rc.c != nil {
		rc.c.Abort()
	}
	rc.mu.Unlock()
	rc.stopPinger()
}

// stopPinger ends the heartbeat prober exactly once; safe to call from
// both Close and Abort, in any order.
func (rc *ResilientClient) stopPinger() {
	if rc.pingStop == nil {
		return
	}
	rc.pingOnce.Do(func() {
		close(rc.pingStop)
		<-rc.pingDone
	})
}

// ensureLinkLocked reconnects (with backoff) and replays the ring if the
// connection is broken. Callers hold rc.mu.
func (rc *ResilientClient) ensureLinkLocked() error {
	if !rc.broken && rc.c != nil {
		return nil
	}
	outageStart := time.Now()
	if rc.c != nil {
		rc.c.Abort()
	}
	backoffCap := rc.cfg.BaseBackoff
	for attempt := 1; ; attempt++ {
		if rc.cfg.MaxAttempts > 0 && attempt > rc.cfg.MaxAttempts {
			return &TerminalError{Reason: fmt.Sprintf("reconnect gave up after %d attempts", rc.cfg.MaxAttempts)}
		}
		// Full jitter: uniform in [0, cap]. Deterministic under cfg.Seed.
		time.Sleep(time.Duration(rc.rng.Float64() * float64(backoffCap)))
		if backoffCap *= 2; backoffCap > rc.cfg.MaxBackoff {
			backoffCap = rc.cfg.MaxBackoff
		}
		c, w, err := rc.dialOnce()
		if err != nil {
			var te *TerminalError
			if errors.As(err, &te) {
				return err
			}
			rc.cfg.Logf("wire: reconnect attempt %d: %v", attempt, err)
			continue
		}
		if err := rc.resumeLocked(c, w); err != nil {
			c.Abort()
			if IsTerminal(err) {
				return err
			}
			rc.cfg.Logf("wire: replay attempt %d: %v", attempt, err)
			continue
		}
		rc.c = c
		rc.broken = false
		rc.reconnects++
		d := time.Since(outageStart)
		rc.outages = append(rc.outages, d)
		rc.cfg.Logf("wire: session %q resumed after %s (attempt %d, ack=%d)",
			rc.hello.Name, d.Round(time.Millisecond), attempt, w.AckSeq)
		rc.lastIO = time.Now()
		return nil
	}
}

// resumeLocked replays the buffered tail above the server's watermark on a
// freshly registered connection and barriers on its completion.
func (rc *ResilientClient) resumeLocked(c *Client, w Welcome) error {
	if w.AckSeq > rc.nextSeq {
		return &TerminalError{Reason: fmt.Sprintf(
			"server watermark %d ahead of client stream %d (session name collision?)", w.AckSeq, rc.nextSeq)}
	}
	if w.AckSeq < rc.nextSeq {
		// The server is missing frames; they must all still be buffered.
		oldest := rc.nextSeq
		if len(rc.ring) > 0 {
			oldest = rc.ring[0].start
		}
		if w.AckSeq < oldest {
			return &TerminalError{Reason: fmt.Sprintf(
				"server lost frames [%d,%d) already evicted from the replay buffer (grow ReplayFrames)", w.AckSeq, oldest)}
		}
	}
	replayed := uint64(0)
	for _, e := range rc.ring {
		if e.end() <= w.AckSeq {
			continue // fully held by the server
		}
		if err := c.SendBatchAt(e.start, e.frames); err != nil {
			return err
		}
		replayed++
	}
	c.SetNextSeq(rc.nextSeq)
	if replayed > 0 {
		// Barrier: the resume is complete only once every replayed frame is
		// stored (or deduped) — a failure here retries the whole resume.
		if _, err := c.Flush(); err != nil {
			return err
		}
	}
	rc.replayed += replayed
	return nil
}
