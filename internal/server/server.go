// Package server implements the AIMS middle tier of the paper's Fig. 2
// three-tier architecture: a concurrent TCP server immersive client
// devices register with, stream frame batches to, and query while the
// session is live. Each connection is one session served by two goroutines
// — the two threads of the paper's §3.1 recording strategy. The reader owns
// the socket: it reads each message into a recycled payload buffer, checks
// a wire batch without decoding it (wire.CheckBatch), enqueues its encoded
// frames whole together with the buffer that holds them, acknowledges it,
// and answers exact/approximate/progressive range aggregates against the
// session's core.LiveStore (core/propolyne). The appender drains the queue
// a group at a time — whatever queued, up to the next Flush barrier, while
// it made the previous group durable: journal write-ahead for the group
// under one durability step, framing the same bytes, then one
// LiveStore.AppendEncoded per batch, quantising straight out of them, then
// the counters, the buffer's return, the barrier and the snapshot check. A
// payload buffer has one owner at a time: the reader until it enqueues the
// batch (or, for any other message and for a shed, duplicate or refused
// batch, until it is done with it), then the appender until the batch is
// stored; a session at rest keeps at most two spares.
//
// Ordering invariants of that hand-off: a batch is acknowledged (and the
// session's ackSeq watermark advanced) when it is enqueued or shed, not
// when it is stored; the queue is FIFO with a single consumer, so batches
// are journaled and stored in arrival order and a Flush barrier queued
// behind them is released only after all of them are journaled, synced
// per policy and stored; the journal record precedes the store append;
// and on disconnect the reader closes
// the queue and waits for the appender to drain it before the session
// leaves. The queue is bounded in frames — those
// waiting and those the appender holds but has not yet stored — with a
// selectable backpressure policy — block the device (lossless) or shed
// whole batches with an explicit wire error. Around that sit idle-session
// eviction, graceful shutdown that drains in-flight batches, and an atomic
// metrics block.
//
// One table owns every session name (names.go), and is the one place a
// session adopts state: a named session parks there whether its link
// dropped or it sent Close, and so does one RecoverSessions rebuilt from
// the journal. A Hello for a held name takes that session over when its
// shape matches, and is refused with a CodeDuplicate Welcome when it does
// not. Only named sessions are journaled; anonymous ones are memory-only.
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"aims/internal/core"
	"aims/internal/fleet"
	"aims/internal/journal"
	"aims/internal/obs"
	"aims/internal/propolyne"
	"aims/internal/transport"
	"aims/internal/wire"
)

// Policy selects what happens when a session's ingest queue is full.
type Policy int

const (
	// PolicyBlock applies backpressure: the reader stops consuming the
	// socket until the queue drains, so acquisition is lossless and the
	// device's TCP window absorbs the stall.
	PolicyBlock Policy = iota
	// PolicyShed drops whole batches that do not fit, acknowledging each
	// with wire.CodeShed so the device knows exactly what was lost.
	PolicyShed
)

// ParsePolicy maps the flag spelling to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "block":
		return PolicyBlock, nil
	case "shed":
		return PolicyShed, nil
	}
	return 0, fmt.Errorf("server: unknown backpressure policy %q (want block|shed)", s)
}

// Config shapes a Server.
type Config struct {
	// QueueFrames bounds each session's ingest queue (default 8192).
	QueueFrames int
	// IdleTimeout evicts sessions with no traffic (default 30 s).
	IdleTimeout time.Duration
	// Heartbeat is the liveness window unit for sessions that send
	// pings: once a session has pinged, its read deadline tightens to
	// 2.5×Heartbeat (if shorter than IdleTimeout), so a dead link is
	// detected in seconds instead of the idle eviction horizon. ≤ 0 means
	// the default, 5 s.
	Heartbeat time.Duration
	// WriteTimeout bounds every socket write, so a device that stops
	// reading cannot wedge the session's responder in the kernel send
	// buffer. It also bounds how long a Hello waits for its name's previous
	// holder to leave. ≤ 0 means the default, 10 s.
	WriteTimeout time.Duration
	// RetainTimeout parks the state of a named session that left — by a
	// dropped link or a Close — or that RecoverSessions rebuilt from disk,
	// so the device can resume exactly where it left off: store, open
	// journal and acknowledged watermark all survive in memory. ≤ 0 means
	// the default, 60 s.
	RetainTimeout time.Duration
	// RetainSessions caps how many sessions may sit parked at once (default
	// 1024); beyond it the longest-parked one is finalized.
	RetainSessions int
	// Policy is the backpressure policy (default PolicyBlock).
	Policy Policy
	// Store templates each session's live store; Rate and HorizonTicks are
	// overridden by the session's registration.
	Store core.LiveStoreConfig
	// TraceSample samples one in N ingest batches and queries into the
	// pipeline tracer. ≤ 0 means the default, obs.DefaultTraceSample (256).
	TraceSample int
	// TraceBuffer bounds the completed-trace ring served by /tracez
	// (default obs.DefaultTraceBuffer).
	TraceBuffer int
	// SlowQuery is the threshold of the always-on slow-query log: any
	// query, fleet query or ingest batch that takes at least this long is
	// traced and retained in a separate bounded ring (served by /slowlog
	// and counted by aims_slow_queries_total) with 100% probability,
	// regardless of the 1/N sampler. ≤ 0 means the default,
	// obs.DefaultSlowQuery (100 ms).
	SlowQuery time.Duration
	// FleetWorkers bounds the scatter fan-out pool of cross-session fleet
	// queries (default 16): a fleet over 10k sessions is scanned
	// FleetWorkers at a time so one query can never monopolise the box.
	FleetWorkers int
	// FleetTimeout is the default per-query fleet deadline (default 5 s);
	// a query's own TimeoutMillis may only tighten it. Sessions unfinished
	// at the deadline surface as per-session failures under the query's
	// fail|partial policy.
	FleetTimeout time.Duration
	// PlanCacheCost sizes the process-wide compiled-query-plan cache, in
	// plan-entry cost units. ≤ 0 keeps the cache's current budget, by
	// default propolyne.DefaultPlanCacheCost (~1M units).
	PlanCacheCost int
	// Journal configures the durability layer (per-session WAL +
	// snapshots) for named sessions; anonymous ones are always memory-only.
	// An empty Journal.Dir leaves the server memory-only; with a directory
	// set, call RecoverSessions before Serve to park the state a previous
	// process left behind.
	Journal journal.Config
	// Logf receives server lifecycle logs (nil discards them).
	Logf func(format string, args ...interface{})
}

func (c Config) withDefaults() Config {
	if c.QueueFrames <= 0 {
		c.QueueFrames = 8192
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 30 * time.Second
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = 5 * time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.RetainTimeout <= 0 {
		c.RetainTimeout = time.Minute
	}
	if c.RetainSessions <= 0 {
		c.RetainSessions = 1024
	}
	if c.Logf == nil {
		c.Logf = func(string, ...interface{}) {}
	}
	return c
}

// Server is one AIMS middle-tier instance.
type Server struct {
	cfg Config

	mu   sync.Mutex // guards lns, and closing quit
	lns  []net.Listener
	quit chan struct{} // closed by Shutdown

	nextID   atomic.Uint64
	sessions *registry // sharded: registration/lookup stays flat at scale

	journal   *journal.Manager // nil when durability is disabled
	recovered atomic.Int64     // sessions rebuilt from disk at startup

	// names is the name table (names.go): who holds each session name,
	// live, parked or leaving.
	namesMu sync.Mutex
	names   map[string]*owner

	fleetCfg fleet.Config // scatter pool width, deadline, metric hooks

	wg      sync.WaitGroup // live session handlers
	serveWg sync.WaitGroup // accept loops
	metrics *metrics
	tracer  *obs.Tracer
}

// New creates a server.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	m := newMetrics()
	if cfg.Store.SealObserver == nil {
		// Surface every session store's seal timings on this server's
		// instruments unless the caller installed its own observer.
		cfg.Store.SealObserver = m.observeSeal
	}
	// The plan cache is process-global (its keys embed engine geometry, so
	// servers cannot cross-contaminate); wire its hooks onto this server's
	// instruments and apply any explicit sizing.
	if cfg.PlanCacheCost > 0 {
		propolyne.SharedCache.SetCapacity(cfg.PlanCacheCost)
	}
	propolyne.SharedCache.SetObserver(m.planObserver())
	s := &Server{cfg: cfg, sessions: newRegistry(), metrics: m,
		tracer: obs.NewTracer(cfg.TraceSample, cfg.TraceBuffer, cfg.SlowQuery, m.observeSlow),
		quit:   make(chan struct{}), names: map[string]*owner{}}
	s.fleetCfg = fleet.Config{
		Workers:  cfg.FleetWorkers,
		Timeout:  cfg.FleetTimeout,
		Observer: m.fleetObserver(),
	}
	if cfg.Journal.Dir != "" {
		jcfg := cfg.Journal
		jcfg.Observer = m.journalObserver()
		if jcfg.Logf == nil {
			jcfg.Logf = cfg.Logf
		}
		mgr, err := journal.OpenManager(jcfg)
		if err != nil {
			// The process can still serve memory-only; every session will
			// report degraded durability through the counter.
			cfg.Logf("journal disabled: %v", err)
			m.journalDegraded.Inc()
		} else {
			s.journal = mgr
		}
	}
	return s
}

// RecoverSessions scans the journal data directory and rebuilds every
// session a previous process journaled there, parking each in the name
// table under its registration name and shape — for RetainTimeout, within
// RetainSessions, like a session whose link dropped — until its device
// resumes it. It returns how many sessions were recovered; with durability
// disabled it is a no-op. Call it once, before Serve.
func (s *Server) RecoverSessions() (int, error) {
	if s.journal == nil {
		return 0, nil
	}
	recovered, err := s.journal.Recover(s.cfg.Store)
	if err != nil {
		return 0, err
	}
	for _, r := range recovered {
		s.cfg.Logf("recovered session %q from %s: %d frames (%d from snapshot, torn tail: %v)",
			r.Meta.Name, r.Key, r.Processed, r.Watermark, r.Truncated)
		s.park(&owner{name: r.Meta.Name, channels: r.Meta.Channels(), rate: r.Meta.Rate,
			store: r.Store, rec: r, ackSeq: r.AckSeq})
	}
	s.recovered.Store(int64(len(recovered)))
	return len(recovered), nil
}

// RecoveredSessions reports how many sessions RecoverSessions rebuilt, and
// how many of those are still parked awaiting their device.
func (s *Server) RecoveredSessions() (recovered, orphaned int) {
	s.namesMu.Lock()
	defer s.namesMu.Unlock()
	for _, o := range s.names {
		if o.rec != nil && o.parked() {
			orphaned++
		}
	}
	return int(s.recovered.Load()), orphaned
}

// Registry exposes the server's metrics registry (what the admin plane
// serves as /metrics).
func (s *Server) Registry() *obs.Registry { return s.metrics.reg }

// Start listens on a transport endpoint — bare "host:port" (TCP),
// "tcp://host:port" or "ws://host:port[/path]" — and serves in the
// background. It returns the bound address, whose String() is directly
// dialable (scheme included for non-TCP transports). Start may be called
// once per endpoint: one server instance can serve TCP and WebSocket
// devices side by side.
func (s *Server) Start(addr string) (net.Addr, error) {
	ln, err := transport.Listen(addr)
	if err != nil {
		return nil, err
	}
	s.serveWg.Add(1)
	go func() {
		defer s.serveWg.Done()
		s.Serve(ln)
	}()
	return ln.Addr(), nil
}

// Serve accepts sessions on ln until the listener fails or Shutdown runs.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.isClosed() {
		s.mu.Unlock()
		ln.Close()
		return errors.New("server: already shut down")
	}
	s.lns = append(s.lns, ln)
	s.mu.Unlock()

	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.isClosed() {
				return nil
			}
			return err
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handleConn(conn)
		}()
	}
}

// Shutdown stops accepting sessions, wakes every session reader, drains
// their in-flight batches and waits for all handlers to finish or the
// context to expire.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.isClosed() {
		close(s.quit)
	}
	lns := s.lns
	s.lns = nil
	s.mu.Unlock()
	s.sessions.forEach(func(sess *session) {
		// An expired read deadline unblocks the session reader; it then
		// drains its queue and closes.
		sess.conn.SetReadDeadline(time.Now())
	})
	for _, ln := range lns {
		ln.Close()
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		s.serveWg.Wait()
		// Every handler has exited, so no more sessions can park; make the
		// parked ones durable before declaring the shutdown complete.
		s.retireAll()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: shutdown incomplete: %w", ctx.Err())
	}
}

// evaluateFleet answers one cross-session fleet query against the current
// live-session set: it snapshots the sharded registry (one shard lock at a
// time — registration stays flat while fleets scan), scatters the query
// across the matching sessions on the bounded fleet worker pool, and
// merges the per-session answers under the query's fail|partial policy.
// A non-nil tr receives every per-session evaluation under parent.
func (s *Server) evaluateFleet(fq wire.FleetQuery, tr *obs.Trace, parent obs.SpanID) wire.FleetResult {
	s.metrics.fleetQueries.Inc()
	snap := s.sessions.snapshot()
	targets := make([]fleet.Session, 0, len(snap))
	for _, sess := range snap {
		targets = append(targets, fleet.Session{ID: sess.id, Class: sess.class, Store: sess.store})
	}
	req := fleet.Request{
		Kind:        fq.Kind,
		Channel:     int(fq.Channel),
		T0:          fq.T0,
		T1:          fq.T1,
		Arg:         fq.Arg,
		Scope:       fq.Scope,
		Partial:     fq.Partial,
		Timeout:     time.Duration(fq.TimeoutMillis) * time.Millisecond,
		Trace:       tr,
		TraceParent: parent,
	}
	res := fleet.Evaluate(context.Background(), targets, req, s.fleetCfg)
	if res.Code == wire.CodePartial {
		s.metrics.fleetPartial.Inc()
	}
	if !res.OK {
		s.metrics.fleetFailed.Inc()
	}
	return res
}

// DeviceClasses reports the live session count per device class, the
// admin plane's /fleet listing. Sessions registered without a class group
// under "".
func (s *Server) DeviceClasses() map[string]int {
	out := make(map[string]int)
	s.sessions.forEach(func(sess *session) {
		out[sess.class]++
	})
	return out
}

// Metrics returns a point-in-time snapshot of the server's counters.
// QueueDepth is an atomic gauge maintained at enqueue/dequeue, so the
// snapshot is O(1) regardless of how many sessions are live.
func (s *Server) Metrics() Snapshot {
	return s.metrics.snapshot()
}

// SessionCount returns the number of live sessions.
func (s *Server) SessionCount() int {
	return s.sessions.len()
}

func (s *Server) register(sess *session) {
	id := s.nextID.Add(1)
	sess.id = id
	sess.idStr = strconv.FormatUint(id, 10)
	s.sessions.put(id, sess)
	s.metrics.sessionsActive.Add(1)
	s.metrics.sessionsTotal.Inc()
	if s.isClosed() {
		// Shutdown's deadline sweep may have run before this registration;
		// apply it here so the new reader wakes immediately.
		sess.conn.SetReadDeadline(time.Now())
	}
}

func (s *Server) isClosed() bool {
	select {
	case <-s.quit:
		return true
	default:
		return false
	}
}
