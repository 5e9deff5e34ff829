package server

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

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
// lock-free from session goroutines; the live and parked session counts are
// the session table's own, read at scrape.
type metrics struct {
	reg *obs.Registry

	table           func() (live, parked int)
	sessionsTotal   *obs.Counter
	framesIngested  *obs.Counter
	batchesIngested *obs.Counter
	framesShed      *obs.Counter
	batchesShed     *obs.Counter
	appendErrors    *obs.Counter
	evictions       *obs.Counter
	// Link-resilience instruments: deduped replay batches, heartbeat pings
	// answered, and resumes announced to their device.
	dupBatches   *obs.Counter
	heartbeats   *obs.Counter
	resumesTotal *obs.Counter
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

	// Fleet query instruments: fan-out width (its count is the number of
	// fleet queries), per-session scan time and merge time per query, plus
	// partial/failure counters.
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

	// Durability instruments (the journal layer updates these).
	walFsyncSeconds *obs.Histogram
	walBytes        *obs.Counter
	snapshotSeconds *obs.Histogram
	snapshotErrors  *obs.Counter
	journalDegraded *obs.Counter
	journalHealed   *obs.Counter

	// Wire-protocol bytes, per direction and message type (header
	// included). Indexed by the wire message type byte; nil entries are
	// types that never flow in that direction.
	bytesIn  [16]*obs.Counter
	bytesOut [16]*obs.Counter
}

// newMetrics builds the instrument block; table reports the session
// table's live and parked counts.
func newMetrics(table func() (live, parked int)) *metrics {
	reg := obs.NewRegistry()
	m := &metrics{
		reg:             reg,
		table:           table,
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
		fleetPartial: reg.Counter("aims_fleet_partial_total",
			"Fleet queries answered from a strict subset of their scope."),
		fleetFailed: reg.Counter("aims_fleet_failed_total", "Fleet queries that returned no merged answer."),
		fleetFanout: reg.Histogram("aims_fleet_fanout_sessions",
			"Sessions matched per fleet query.", fanoutBounds),
		fleetScanSeconds: reg.Histogram("aims_fleet_scan_seconds",
			"Per-session scan time inside a fleet query.", stageBounds),
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
			"Session snapshot wall time (encode + write + WAL truncation).", sealBounds),
		snapshotErrors: reg.Counter("aims_snapshot_errors_total", "Session snapshots that failed."),
		journalDegraded: reg.Counter("aims_journal_degraded_total",
			"Durability losses: a journal that failed to open, and each session served without the durability it was configured for."),
		journalHealed: reg.Counter("aims_journal_healed_total",
			"Times a degraded session restored durability via a snapshot."),
	}
	const slowHelp = "Traces retained by the always-on slow-query log, by kind."
	m.slowQueries = map[string]*obs.Counter{
		"query":       reg.CounterWith("aims_slow_queries_total", `kind="query"`, slowHelp),
		"fleet-query": reg.CounterWith("aims_slow_queries_total", `kind="fleet-query"`, slowHelp),
		"ingest":      reg.CounterWith("aims_slow_queries_total", `kind="ingest"`, slowHelp),
	}
	reg.GaugeFunc("aims_sessions_active", "Live registered sessions.",
		func() float64 { live, _ := table(); return float64(live) })
	reg.GaugeFunc("aims_sessions_detached",
		"Sessions parked awaiting their device: link lost, closed, taken over, or found on disk at startup.",
		func() float64 { _, parked := table(); return float64(parked) })
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

// line renders the counters the periodic log reports as one line, read
// straight from the instruments.
func (m *metrics) line() string {
	queries := m.queryLatency.Count()
	live, _ := m.table()
	var b strings.Builder
	fmt.Fprintf(&b, "sessions=%d/%d frames=%d batches=%d shed=%d/%d queue=%d queries=%d evictions=%d",
		live, m.sessionsTotal.Value(), m.framesIngested.Value(),
		m.batchesIngested.Value(), m.batchesShed.Value(), m.framesShed.Value(),
		m.queueDepth.Value(), queries, m.evictions.Value())
	if queries > 0 {
		mean := time.Duration(m.queryLatency.Sum() / float64(queries) * float64(time.Second))
		slowest := time.Duration(m.latencyMaxNS.Load())
		fmt.Fprintf(&b, " qlat(mean=%s max=%s hist=", mean.Round(time.Microsecond), slowest.Round(time.Microsecond))
		for i, c := range m.queryLatency.BucketCounts() {
			if i > 0 {
				b.WriteByte('/')
			}
			fmt.Fprintf(&b, "%d", c)
		}
		b.WriteByte(')')
	}
	return b.String()
}
