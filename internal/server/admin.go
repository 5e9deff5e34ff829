package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"

	"aims/internal/core"
	"aims/internal/obs"
	"aims/internal/wavelet"
)

// SessionInfo is one live session's record on the /sessions admin
// endpoint.
type SessionInfo struct {
	ID             uint64  `json:"id"`
	Name           string  `json:"name"`
	Class          string  `json:"class,omitempty"`
	Channels       int     `json:"channels"`
	Rate           float64 `json:"rate_hz"`
	FramesStored   uint64  `json:"frames_stored"`
	FramesEnqueued uint64  `json:"frames_enqueued"`
	QueueLen       int     `json:"queue_len"`
	ShedBatches    uint64  `json:"shed_batches"`
	ShedFrames     uint64  `json:"shed_frames"`
	AppendErrors   uint64  `json:"append_errors"`
	// StoreBytes is what the session's live store holds in memory.
	StoreBytes core.Footprint `json:"store_bytes"`

	// Durability state: whether the session journals at all, whether it
	// resumed recovered state, how many frames the journal has seen across
	// incarnations, and whether it is currently shedding durability.
	Durable         bool   `json:"durable"`
	Resumed         bool   `json:"resumed"`
	JournalFrames   uint64 `json:"journal_frames"`
	JournalDegraded bool   `json:"journal_degraded"`
}

// Sessions snapshots every live session, sorted by ID. Counters are
// point-in-time atomic reads; QueueLen is the instantaneous ingest-queue
// length.
func (s *Server) Sessions() []SessionInfo {
	var out []SessionInfo
	for _, sess := range s.liveSessions() {
		info := SessionInfo{
			ID:             sess.id,
			Name:           sess.name,
			Class:          sess.class,
			Channels:       sess.store.Channels(),
			Rate:           sess.rate,
			FramesStored:   sess.stored.Load(),
			FramesEnqueued: sess.enqueued.Load(),
			QueueLen:       sess.q.len(),
			ShedBatches:    sess.shedB.Load(),
			ShedFrames:     sess.shedF.Load(),
			AppendErrors:   sess.badAppend.Load(),
			StoreBytes:     sess.store.Footprint(),
		}
		if sess.jsess != nil {
			info.Durable = true
			info.Resumed = sess.resumed
			info.JournalFrames = sess.jsess.Processed()
			info.JournalDegraded = sess.jsess.Degraded()
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// FleetClassInfo is one device class's row on the /fleet admin endpoint.
type FleetClassInfo struct {
	Class    string `json:"class"`
	Sessions int    `json:"sessions"`
}

// AdminHandler assembles the server's admin HTTP plane:
//
//	/metrics  Prometheus text exposition (server registry + process-wide
//	          wavelet transform instruments), with OpenMetrics exemplars
//	          linking latency buckets to trace IDs
//	/healthz  readiness: 200 "ok" while serving, 503 "draining" once
//	          shutdown has begun
//	/sessions per-session JSON from the session table
//	/fleet    device classes with live session counts (fleet query scopes)
//	/tracez   slowest sampled pipeline traces as JSON (?n= to bound,
//	          clamped to the ring capacity; ?id=<16-hex> serves one trace
//	          by its distributed trace ID — sampled or slow-retained)
//	/slowlog  the always-on slow-query log: structured records of every
//	          trace that crossed the slow threshold, newest first
//	/debug/pprof/...  the standard Go profiler endpoints
//
// Read-only endpoints answer GET only (405 otherwise). The handler is
// independent of the wire listener, so it keeps answering (and reporting
// the draining state) while Shutdown drains sessions.
func (s *Server) AdminHandler() http.Handler {
	proc := obs.NewRegistry()
	proc.CounterFunc("aims_wavelet_lines_total",
		"1-D wavelet lines transformed (process-wide).",
		func() float64 { return float64(wavelet.ReadTransformStats().Lines) })
	proc.CounterFunc("aims_wavelet_parallel_runs_total",
		"Axis transforms fanned across the worker pool.",
		func() float64 { return float64(wavelet.ReadTransformStats().ParallelRuns) })
	proc.CounterFunc("aims_wavelet_serial_runs_total",
		"Axis transforms run on the serial path.",
		func() float64 { return float64(wavelet.ReadTransformStats().SerialRuns) })
	proc.CounterFunc("aims_wavelet_worker_busy_seconds_total",
		"Summed wall time transform workers spent busy.",
		func() float64 { return wavelet.ReadTransformStats().WorkerBusy.Seconds() })
	proc.GaugeFunc("aims_wavelet_worker_utilisation",
		"Busy/capacity ratio of the transform worker pool.",
		func() float64 { return wavelet.ReadTransformStats().Utilisation() })

	mux := http.NewServeMux()
	// getOnly guards the read-only endpoints: anything but GET is a 405
	// with the Allow header, so a misdirected POST can never be mistaken
	// for a successful scrape.
	getOnly := func(h http.HandlerFunc) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodGet {
				w.Header().Set("Allow", http.MethodGet)
				http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
				return
			}
			h(w, r)
		}
	}
	mux.HandleFunc("/metrics", getOnly(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.metrics.reg.WritePrometheus(w)
		proc.WritePrometheus(w)
	}))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if s.isClosed() {
			w.WriteHeader(http.StatusServiceUnavailable)
			io.WriteString(w, "draining\n")
			return
		}
		io.WriteString(w, "ok\n")
		// Recovery state rides along on extra lines so a smoke test (or an
		// operator) can confirm a restart adopted its prior sessions.
		recovered, orphans := s.RecoveredSessions()
		fmt.Fprintf(w, "recovered=%d orphans=%d\n", recovered, orphans)
	})
	mux.HandleFunc("/sessions", getOnly(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		sessions := s.Sessions()
		if sessions == nil {
			sessions = []SessionInfo{}
		}
		json.NewEncoder(w).Encode(struct {
			Count    int           `json:"count"`
			Sessions []SessionInfo `json:"sessions"`
		}{len(sessions), sessions})
	}))
	mux.HandleFunc("/fleet", getOnly(func(w http.ResponseWriter, r *http.Request) {
		classes := s.DeviceClasses()
		out := make([]FleetClassInfo, 0, len(classes))
		for class, n := range classes {
			out = append(out, FleetClassInfo{Class: class, Sessions: n})
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Class < out[j].Class })
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(struct {
			Count   int              `json:"count"`
			Classes []FleetClassInfo `json:"classes"`
		}{len(out), out})
	}))
	mux.HandleFunc("/tracez", getOnly(func(w http.ResponseWriter, r *http.Request) {
		// ?id= serves one trace by its distributed trace ID — the lookup a
		// traced client (aims-query -trace) uses to fetch its span tree.
		// Slow-retained traces resolve here even when the sampler skipped
		// them.
		if idHex := r.URL.Query().Get("id"); idHex != "" {
			id, err := strconv.ParseUint(idHex, 16, 64)
			if err != nil {
				http.Error(w, "bad trace id (want hex)", http.StatusBadRequest)
				return
			}
			snap, ok := s.tracer.FindByID(id)
			if !ok {
				http.Error(w, "trace not found", http.StatusNotFound)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(snap)
			return
		}
		n := 10
		if q := r.URL.Query().Get("n"); q != "" {
			if v, err := strconv.Atoi(q); err == nil && v > 0 {
				n = v
			}
		}
		// Clamp to the ring capacity so an absurd ?n= cannot make the
		// handler allocate beyond what the tracer can ever hold.
		if c := s.tracer.Capacity(); n > c {
			n = c
		}
		traces := s.tracer.Slowest(n)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(struct {
			SampleEvery int                 `json:"sample_every"`
			Traces      []obs.TraceSnapshot `json:"traces"`
		}{s.tracer.SampleEvery(), traces})
	}))
	mux.HandleFunc("/slowlog", getOnly(func(w http.ResponseWriter, r *http.Request) {
		n := obs.DefaultSlowBuffer
		if q := r.URL.Query().Get("n"); q != "" {
			if v, err := strconv.Atoi(q); err == nil && v > 0 && v < n {
				n = v
			}
		}
		records := s.tracer.SlowLog(n)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(struct {
			ThresholdNS int64            `json:"threshold_ns"`
			Count       int              `json:"count"`
			Records     []obs.SlowRecord `json:"records"`
		}{s.tracer.SlowThreshold().Nanoseconds(), len(records), records})
	}))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
