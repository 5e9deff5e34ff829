package server

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"aims/internal/fleet"
	"aims/internal/journal"
	"aims/internal/obs"
	"aims/internal/propolyne"
	"aims/internal/wire"
)

// latencyBounds are the query-latency histogram bucket upper bounds; the
// histogram's bucket array is derived from this slice (len+1 for the
// unbounded tail), so editing the bounds can never silently truncate the
// counts.
var latencyBounds = []float64{
	50e-6, 200e-6, 1e-3, 5e-3, 20e-3, 100e-3, 500e-3,
}

// stageBounds bucket the per-stage ingest timings (decode, queue wait,
// append), which sit well below query latencies.
var stageBounds = []float64{
	10e-6, 50e-6, 200e-6, 1e-3, 5e-3, 20e-3, 100e-3, 500e-3,
}

// sealBounds bucket seal wall times: incremental seals are sub-millisecond,
// rebuilds can run to seconds.
var sealBounds = []float64{
	200e-6, 1e-3, 5e-3, 20e-3, 100e-3, 500e-3, 2,
}

// deltaBounds bucket the delta-log depth replayed by incremental seals.
var deltaBounds = []float64{64, 256, 1024, 4096, 16384, 65536}

// fsyncBounds bucket WAL fsync latencies: tens of microseconds on a warm
// page cache, tens of milliseconds on a contended disk.
var fsyncBounds = []float64{
	20e-6, 100e-6, 500e-6, 2e-3, 10e-3, 50e-3, 250e-3,
}

// fanoutBounds bucket fleet fan-out width (sessions matched per fleet
// query), spanning a single glove to a 10k-session fleet.
var fanoutBounds = []float64{1, 4, 16, 64, 256, 1024, 4096}

// compileBounds bucket query-plan compile times: a hot lazy transform is
// single-digit microseconds, a high-degree multi-dimension compile can run
// to milliseconds.
var compileBounds = []float64{
	2e-6, 10e-6, 50e-6, 200e-6, 1e-3, 5e-3, 20e-3,
}

// metrics is the server's instrument block, registered in a per-server
// obs.Registry (exposed on the admin plane as /metrics). All updates are
// lock-free from session goroutines.
type metrics struct {
	reg *obs.Registry

	sessionsActive  *obs.Gauge
	sessionsTotal   *obs.Counter
	framesIngested  *obs.Counter
	batchesIngested *obs.Counter
	framesShed      *obs.Counter
	batchesShed     *obs.Counter
	appendErrors    *obs.Counter
	evictions       *obs.Counter
	// Link-resilience instruments: deduped replay batches, heartbeat pings
	// answered, sessions parked for reconnection (link lost, or recovered
	// from disk), and successful resumes.
	dupBatches       *obs.Counter
	heartbeats       *obs.Counter
	sessionsDetached *obs.Gauge
	resumesTotal     *obs.Counter
	// queueDepth is the frames-waiting gauge across all sessions,
	// incremented at enqueue and decremented at dequeue so Metrics never
	// has to walk the session map.
	queueDepth *obs.Gauge

	queryLatency *obs.Histogram
	latencyMaxNS atomic.Int64

	// slowQueries counts traces the always-on slow-query log retained,
	// keyed by trace kind ("query", "fleet-query", "ingest").
	slowQueries map[string]*obs.Counter

	// Stage-level ingest pipeline instruments.
	decodeSeconds    *obs.Histogram
	queueWaitSeconds *obs.Histogram
	appendSeconds    *obs.Histogram

	// Seal instruments, split by path, plus the delta-log depth each
	// incremental seal replayed.
	sealIncrSeconds    *obs.Histogram
	sealRebuildSeconds *obs.Histogram
	sealDeltaEntries   *obs.Histogram

	// Fleet query instruments: fan-out width, per-session scan time and
	// merge time per query, plus query/partial/failure counters.
	fleetQueries      *obs.Counter
	fleetPartial      *obs.Counter
	fleetFailed       *obs.Counter
	fleetFanout       *obs.Histogram
	fleetScanSeconds  *obs.Histogram
	fleetMergeSeconds *obs.Histogram

	// Query-plan cache instruments (the shared propolyne PlanCache
	// reports through these).
	planHits           *obs.Counter
	planMisses         *obs.Counter
	planEvictions      *obs.Counter
	planCompileSeconds *obs.Histogram

	// Durability instruments (the journal layer reports through these).
	walFsyncSeconds *obs.Histogram
	walBytes        *obs.Counter
	snapshotSeconds *obs.Histogram
	snapshots       *obs.Counter
	snapshotErrors  *obs.Counter
	journalDegraded *obs.Counter
	journalHealed   *obs.Counter

	// Wire-protocol bytes, per direction and message type (header
	// included). Indexed by the wire message type byte; nil entries are
	// types that never flow in that direction.
	bytesIn  [16]*obs.Counter
	bytesOut [16]*obs.Counter
}

func newMetrics() *metrics {
	reg := obs.NewRegistry()
	m := &metrics{
		reg:             reg,
		sessionsActive:  reg.Gauge("aims_sessions_active", "Live registered sessions."),
		sessionsTotal:   reg.Counter("aims_sessions_total", "Sessions registered since start."),
		framesIngested:  reg.Counter("aims_ingest_frames_total", "Frames appended into live stores."),
		batchesIngested: reg.Counter("aims_ingest_batches_total", "Wire batches accepted for ingest."),
		framesShed:      reg.Counter("aims_shed_frames_total", "Frames dropped by the shed backpressure policy."),
		batchesShed:     reg.Counter("aims_shed_batches_total", "Batches dropped by the shed backpressure policy."),
		appendErrors:    reg.Counter("aims_append_errors_total", "Frames rejected by live-store validation."),
		evictions:       reg.Counter("aims_evictions_total", "Sessions evicted for idling."),
		dupBatches: reg.Counter("aims_dup_batches_total",
			"Replayed batches dropped or trimmed at the session's acknowledged watermark."),
		heartbeats: reg.Counter("aims_heartbeats_total", "Heartbeat pings answered."),
		sessionsDetached: reg.Gauge("aims_sessions_detached",
			"Sessions parked in memory awaiting their device: link lost, closed, or recovered from disk."),
		resumesTotal: reg.Counter("aims_session_resumes_total",
			"Sessions resumed by a reconnecting device (parked or journal-recovered)."),
		queueDepth: reg.Gauge("aims_queue_depth", "Frames waiting in session ingest queues."),
		queryLatency: reg.Histogram("aims_query_seconds",
			"Query evaluation latency.", latencyBounds),
		decodeSeconds: reg.Histogram("aims_ingest_decode_seconds",
			"Wire batch decode time.", stageBounds),
		queueWaitSeconds: reg.Histogram("aims_ingest_queue_wait_seconds",
			"Enqueue-to-append wait of an ingest batch.", stageBounds),
		appendSeconds: reg.Histogram("aims_ingest_append_seconds",
			"LiveStore append time per acquisition batch.", stageBounds),
		sealIncrSeconds: reg.HistogramWith("aims_seal_seconds", `mode="incremental"`,
			"Seal wall time by path.", sealBounds),
		sealRebuildSeconds: reg.HistogramWith("aims_seal_seconds", `mode="rebuild"`,
			"Seal wall time by path.", sealBounds),
		sealDeltaEntries: reg.Histogram("aims_seal_delta_entries",
			"Delta-log entries replayed per incremental seal.", deltaBounds),
		fleetQueries: reg.Counter("aims_fleet_queries_total", "Cross-session fleet queries evaluated."),
		fleetPartial: reg.Counter("aims_fleet_partial_total",
			"Fleet queries answered from a strict subset of their scope."),
		fleetFailed: reg.Counter("aims_fleet_failed_total", "Fleet queries that returned no merged answer."),
		fleetFanout: reg.Histogram("aims_fleet_fanout_sessions",
			"Sessions matched per fleet query.", fanoutBounds),
		fleetScanSeconds: reg.Histogram("aims_fleet_scan_seconds",
			"Per-session scan time inside fleet scatter.", stageBounds),
		fleetMergeSeconds: reg.Histogram("aims_fleet_merge_seconds",
			"Merge time per fleet query.", stageBounds),
		planHits:   reg.Counter("aims_plan_cache_hits_total", "Query-plan cache hits."),
		planMisses: reg.Counter("aims_plan_cache_misses_total", "Query-plan cache misses (compilations)."),
		planEvictions: reg.Counter("aims_plan_cache_evictions_total",
			"Query plans evicted to hold the cache budget."),
		planCompileSeconds: reg.Histogram("aims_plan_compile_seconds",
			"Query-plan compile wall time.", compileBounds),
		walFsyncSeconds: reg.Histogram("aims_wal_fsync_seconds",
			"WAL fsync latency.", fsyncBounds),
		walBytes: reg.Counter("aims_wal_bytes_total", "Bytes appended to session WALs."),
		snapshotSeconds: reg.Histogram("aims_snapshot_seconds",
			"Session snapshot wall time (seal + write + WAL truncation).", sealBounds),
		snapshots:      reg.Counter("aims_snapshots_total", "Session snapshots written."),
		snapshotErrors: reg.Counter("aims_snapshot_errors_total", "Session snapshots that failed."),
		journalDegraded: reg.Counter("aims_journal_degraded_total",
			"Times a session shed durability after journal write failures."),
		journalHealed: reg.Counter("aims_journal_healed_total",
			"Times a degraded session restored durability via a snapshot."),
	}
	const slowHelp = "Traces retained by the always-on slow-query log, by kind."
	m.slowQueries = map[string]*obs.Counter{
		"query":       reg.CounterWith("aims_slow_queries_total", `kind="query"`, slowHelp),
		"fleet-query": reg.CounterWith("aims_slow_queries_total", `kind="fleet-query"`, slowHelp),
		"ingest":      reg.CounterWith("aims_slow_queries_total", `kind="ingest"`, slowHelp),
	}
	reg.GaugeFunc("aims_query_latency_max_seconds", "Slowest query so far.",
		func() float64 { return time.Duration(m.latencyMaxNS.Load()).Seconds() })
	reg.GaugeFunc("aims_plan_cache_plans", "Compiled query plans resident in the shared cache.",
		func() float64 { return float64(propolyne.SharedCache.Stats().Plans) })
	reg.GaugeFunc("aims_plan_cache_cost_units", "Resident query-plan cache cost (entry units).",
		func() float64 { return float64(propolyne.SharedCache.Stats().Cost) })
	const bytesHelp = "Wire bytes by direction and message type, headers included."
	for _, typ := range []byte{wire.MsgHello, wire.MsgBatch, wire.MsgQuery, wire.MsgFlush,
		wire.MsgClose, wire.MsgFleetQuery, wire.MsgPing} {
		m.bytesIn[typ] = reg.CounterWith("aims_wire_bytes_total",
			fmt.Sprintf(`dir="in",type=%q`, wire.TypeName(typ)), bytesHelp)
	}
	for _, typ := range []byte{wire.MsgWelcome, wire.MsgBatchAck, wire.MsgResult,
		wire.MsgCloseAck, wire.MsgError, wire.MsgFlushAck, wire.MsgFleetResult, wire.MsgPong} {
		m.bytesOut[typ] = reg.CounterWith("aims_wire_bytes_total",
			fmt.Sprintf(`dir="out",type=%q`, wire.TypeName(typ)), bytesHelp)
	}
	return m
}

// observeQuery records one query latency; a non-zero traceID pins the
// observation as the landing bucket's exemplar, so a bad latency bucket on
// /metrics points straight at a captured trace on /tracez?id=.
func (m *metrics) observeQuery(d time.Duration, traceID uint64) {
	m.queryLatency.ObserveExemplar(d.Seconds(), traceID)
	for {
		cur := m.latencyMaxNS.Load()
		if int64(d) <= cur || m.latencyMaxNS.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

// observeSlow is the tracer's slow-retention hook: one count per trace the
// slow ring kept. Unknown kinds are dropped rather than minting unbounded
// label values.
func (m *metrics) observeSlow(kind string) {
	if c, ok := m.slowQueries[kind]; ok {
		c.Inc()
	}
}

// fleetObserver wires the fleet evaluator's hooks onto this server's
// instruments.
func (m *metrics) fleetObserver() fleet.Observer {
	return fleet.Observer{
		FanOut:       func(width int) { m.fleetFanout.Observe(float64(width)) },
		ScanSeconds:  func(s float64) { m.fleetScanSeconds.Observe(s) },
		MergeSeconds: func(s float64) { m.fleetMergeSeconds.Observe(s) },
	}
}

// planObserver wires the shared plan cache's hooks onto this server's
// instruments. The cache is process-global; when several servers share a
// process (tests), the most recently constructed one owns the hooks.
func (m *metrics) planObserver() propolyne.PlanObserver {
	return propolyne.PlanObserver{
		Hit:            func() { m.planHits.Inc() },
		Miss:           func() { m.planMisses.Inc() },
		Evict:          func() { m.planEvictions.Inc() },
		CompileSeconds: func(s float64) { m.planCompileSeconds.Observe(s) },
	}
}

// journalObserver wires the durability layer's callbacks onto this
// server's instruments.
func (m *metrics) journalObserver() journal.Observer {
	return journal.Observer{
		FsyncSeconds:    func(s float64) { m.walFsyncSeconds.Observe(s) },
		AppendBytes:     func(n int) { m.walBytes.Add(uint64(n)) },
		SnapshotSeconds: func(s float64) { m.snapshotSeconds.Observe(s); m.snapshots.Inc() },
		SnapshotError:   func() { m.snapshotErrors.Inc() },
		Degraded:        func() { m.journalDegraded.Inc() },
		Healed:          func() { m.journalHealed.Inc() },
	}
}

// observeSeal is the LiveStore seal hook: wall time split by path, and
// delta-log depth for incremental seals.
func (m *metrics) observeSeal(d time.Duration, incremental bool, deltaEntries int) {
	if incremental {
		m.sealIncrSeconds.Observe(d.Seconds())
		m.sealDeltaEntries.Observe(float64(deltaEntries))
	} else {
		m.sealRebuildSeconds.Observe(d.Seconds())
	}
}

// countIn/countOut account one wire message's bytes (5-byte header plus
// payload) to its direction/type series.
func (m *metrics) countIn(typ byte, payloadLen int) {
	if int(typ) < len(m.bytesIn) && m.bytesIn[typ] != nil {
		m.bytesIn[typ].Add(uint64(wire.MessageSize(payloadLen)))
	}
}

func (m *metrics) countOut(typ byte, payloadLen int) {
	if int(typ) < len(m.bytesOut) && m.bytesOut[typ] != nil {
		m.bytesOut[typ].Add(uint64(wire.MessageSize(payloadLen)))
	}
}

// Snapshot is one consistent-enough read of the server's counters,
// suitable for JSON logging.
type Snapshot struct {
	SessionsActive  int64  `json:"sessions_active"`
	SessionsTotal   uint64 `json:"sessions_total"`
	FramesIngested  uint64 `json:"frames_ingested"`
	BatchesIngested uint64 `json:"batches_ingested"`
	FramesShed      uint64 `json:"frames_shed"`
	BatchesShed     uint64 `json:"batches_shed"`
	AppendErrors    uint64 `json:"append_errors"`
	Queries         uint64 `json:"queries"`
	Evictions       uint64 `json:"evictions"`
	QueueDepth      int    `json:"queue_depth"` // frames waiting across all sessions

	// QueryLatency histogram: counts per bucket of latencyBounds plus the
	// overflow bucket, with mean and max.
	LatencyCounts []uint64      `json:"latency_counts"`
	LatencyMean   time.Duration `json:"latency_mean_ns"`
	LatencyMax    time.Duration `json:"latency_max_ns"`
}

func (m *metrics) snapshot() Snapshot {
	s := Snapshot{
		SessionsActive:  m.sessionsActive.Value(),
		SessionsTotal:   m.sessionsTotal.Value(),
		FramesIngested:  m.framesIngested.Value(),
		BatchesIngested: m.batchesIngested.Value(),
		FramesShed:      m.framesShed.Value(),
		BatchesShed:     m.batchesShed.Value(),
		AppendErrors:    m.appendErrors.Value(),
		Queries:         m.queryLatency.Count(),
		Evictions:       m.evictions.Value(),
		QueueDepth:      int(m.queueDepth.Value()),
		LatencyCounts:   m.queryLatency.BucketCounts(),
		LatencyMax:      time.Duration(m.latencyMaxNS.Load()),
	}
	if s.Queries > 0 {
		s.LatencyMean = time.Duration(m.queryLatency.Sum() / float64(s.Queries) * float64(time.Second))
	}
	return s
}

// String renders the snapshot as one log line.
func (s Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sessions=%d/%d frames=%d batches=%d shed=%d/%d queue=%d queries=%d evictions=%d",
		s.SessionsActive, s.SessionsTotal, s.FramesIngested, s.BatchesIngested,
		s.BatchesShed, s.FramesShed, s.QueueDepth, s.Queries, s.Evictions)
	if s.Queries > 0 {
		fmt.Fprintf(&b, " qlat(mean=%s max=%s hist=", s.LatencyMean.Round(time.Microsecond), s.LatencyMax.Round(time.Microsecond))
		for i, c := range s.LatencyCounts {
			if i > 0 {
				b.WriteByte('/')
			}
			fmt.Fprintf(&b, "%d", c)
		}
		b.WriteByte(')')
	}
	return b.String()
}
