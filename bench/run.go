package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// runConfig is one benchmark run: one workload, one seed, one window.
type runConfig struct {
	workload string
	seed     int64
	warmup   time.Duration
	window   time.Duration
	quiet    time.Duration // fleet_scan: idle window before the first query
	setups   int           // fewest set-ups per run; setup_s is their median
	traced   bool
	traceOut string // file the traced run writes; empty for none

	workDir   string // scratch inside the checkout: binary, data dirs
	serverBin string
	buildTime time.Duration
	out       io.Writer // the human-readable report
}

// runResult is everything one run measured.
type runResult struct {
	workload  string
	seed      int64
	inputHash string
	values    map[string]float64
	counts    map[string]int // sample size behind a percentile or median
	checks    checker
	invalid   []string           // reasons the generator, not the server, spoiled the run
	tr        *tracer            // nil unless the run is traced
	opMix     map[opKind]int     // ops of each class in the window
	opP50     map[opKind]float64 // and each class's median latency, ms
	waterfall []waterfall
}

func newResult(cfg runConfig) *runResult {
	r := &runResult{
		workload: cfg.workload, seed: cfg.seed,
		values: map[string]float64{}, counts: map[string]int{},
	}
	if cfg.traced {
		r.tr = newTracer()
	}
	return r
}

func (r *runResult) set(name string, v float64) { r.values[name] = v }

func (r *runResult) setN(name string, v float64, n int) {
	r.values[name] = v
	r.counts[name] = n
}

// checker counts attempted and failed operations. Ops are batches,
// queries, fleet queries and verification checks; an error, a refusal, a
// shed batch or an answer that disagrees with the reference is a failure.
type checker struct {
	mu        sync.Mutex
	attempted int
	failed    int
	first     []string // the first few failures, for the report
}

func (c *checker) add(attempted, failed int) {
	c.mu.Lock()
	c.attempted += attempted
	c.failed += failed
	c.mu.Unlock()
}

// verify counts one op and records err, if any, as its failure.
func (c *checker) verify(what string, err error) {
	c.mu.Lock()
	c.attempted++
	if err != nil {
		c.failed++
		if len(c.first) < 8 {
			c.first = append(c.first, what+": "+err.Error())
		}
	}
	c.mu.Unlock()
}

// selfCPU is the generator's own cumulative CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sample is the server and generator state at one edge of a window.
type sample struct {
	at        time.Time
	serverCPU time.Duration
	clientCPU time.Duration
	scrape    map[string]float64 // traced runs only
}

func takeSample(srv *serverProc, traced bool) (sample, error) {
	s := sample{at: time.Now(), clientCPU: selfCPU()}
	var err error
	if s.serverCPU, err = srv.cpu(); err != nil {
		return s, err
	}
	if traced {
		s.scrape, err = srv.scrape()
	}
	return s, err
}

// windowSlices is how many equal slices a timed window is cut into. Each
// rate, CPU cost and latency percentile is computed per slice and reported
// as the median over slices, so a burst that spoils one slice (a noisy
// neighbour, a GC cycle) does not decide the run.
const windowSlices = 5

// sampleEdges takes n samples at the slice edges start, start+window/5, …
// and returns when the last is taken. Only the window's first and last edge
// scrape /metrics.
func sampleEdges(srv *serverProc, start time.Time, window time.Duration, n int, traced bool) ([]sample, error) {
	edges := make([]sample, 0, n)
	for k := 0; k < n; k++ {
		sleepUntil(start.Add(time.Duration(k) * window / windowSlices))
		s, err := takeSample(srv, traced && (k == 0 || k == windowSlices))
		if err != nil {
			return nil, err
		}
		edges = append(edges, s)
	}
	return edges, nil
}

// sliceOf returns which slice of the window an instant falls into.
func sliceOf(edges []sample, at time.Time) int {
	k := sort.Search(len(edges)-1, func(i int) bool { return edges[i+1].at.After(at) })
	return min(k, len(edges)-2)
}

// windowStats turns the window's edge samples and its sliced latencies into
// the metrics every workload shares, and keeps each op class's count and
// median latency for the layer budget.
func (r *runResult) windowStats(srv *serverProc, edges []sample, lat map[opKind][]latencies) error {
	ops := make([]int, windowSlices)
	r.opMix, r.opP50 = map[opKind]int{}, map[opKind]float64{}
	for kind, slices := range lat {
		for k, l := range slices {
			ops[k] += len(l)
		}
		r.opP50[kind], r.opMix[kind] = slicedMS(slices, 0.50)
	}
	first, last := edges[0], edges[len(edges)-1]
	wall := last.at.Sub(first.at).Seconds()
	cpu := (last.serverCPU - first.serverCPU).Seconds()
	r.set("window_s", wall)
	r.set("server_cpu_s", cpu)
	r.set("client.server_cpu_s", cpu)
	var perOp, rate []float64
	for k, n := range ops {
		if n == 0 {
			continue
		}
		perOp = append(perOp, float64(edges[k+1].serverCPU-edges[k].serverCPU)/float64(time.Microsecond)/float64(n))
		rate = append(rate, float64(n)/edges[k+1].at.Sub(edges[k].at).Seconds())
	}
	r.setN("server_cpu_us_per_op", median(perOp), len(perOp))
	r.setN("ops_per_s", median(rate), len(rate))
	rss, err := srv.rssPeakMiB()
	if err != nil {
		return err
	}
	r.set("server_rss_peak_mb", rss)
	share := 100 * (last.clientCPU - first.clientCPU).Seconds() / (wall * float64(runtime.NumCPU()))
	r.set("client.cpu_share_pct", share)
	return nil
}

// slicedMS is a latency percentile taken per slice and reported as the
// median over the slices that hold samples, with the total sample count.
func slicedMS(slices []latencies, p float64) (float64, int) {
	var vals []float64
	n := 0
	for _, l := range slices {
		if len(l) > 0 {
			vals = append(vals, l.ms(p))
			n += len(l)
		}
	}
	if len(vals) == 0 {
		return 0, 0
	}
	return median(vals), n
}

// setSliced stores one sliced latency percentile under a metric name.
func (r *runResult) setSliced(name string, slices []latencies, p float64) {
	v, n := slicedMS(slices, p)
	r.setN(name, v, n)
}

// repeatSetup sets the workload up several times and keeps the last
// environment; the others are discarded as soon as they are ready. It
// returns the median set-up time, so one slow start does not decide
// setup_s. A set-up that takes milliseconds is repeated more often than one
// that takes seconds: at least atLeast times, then until setupBudget is
// spent.
func repeatSetup[E any](atLeast int, setup func(i int) (E, error), discard func(E)) (E, float64, error) {
	const (
		setupBudget = 1500 * time.Millisecond
		maxSetups   = 15
	)
	var env E
	var times []float64
	begin := time.Now()
	for i := 0; i < atLeast || (i < maxSetups && time.Since(begin) < setupBudget); i++ {
		if i > 0 {
			discard(env)
		}
		t0 := time.Now()
		e, err := setup(i)
		if err != nil {
			var zero E
			return zero, 0, err
		}
		env = e
		times = append(times, time.Since(t0).Seconds())
	}
	return env, median(times), nil
}

// dataDir makes a fresh directory under the run's scratch space.
func (cfg runConfig) dataDir(name string) (string, error) {
	dir := filepath.Join(cfg.workDir, fmt.Sprintf("run-%d", os.Getpid()), name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// cleanup removes the run's scratch space.
func (cfg runConfig) cleanup() {
	os.RemoveAll(filepath.Join(cfg.workDir, fmt.Sprintf("run-%d", os.Getpid())))
}

// --- open loop ---------------------------------------------------------

// opRecord is what happened to one scheduled op.
type opRecord struct {
	kind     opKind
	due      time.Duration
	latency  time.Duration // intended send time → completion
	lag      time.Duration // how late the generator sent it, see runTimeline
	inWindow bool
}

// sleepUntil returns as close to t as the scheduler allows: a timer sleep
// for most of the wait, then a spin. A timer alone wakes about a
// millisecond late on the sandbox's kernel, which is the whole lag budget;
// spinning the last 1.5 ms costs a timeline about a seventh of a core.
func sleepUntil(t time.Time) {
	const spin = 1500 * time.Microsecond
	if d := time.Until(t); d > spin {
		time.Sleep(d - spin)
	}
	for time.Now().Before(t) {
	}
}

// runTimeline plays one connection's schedule open loop: each op goes out
// at its intended time whether or not the server kept up, and its latency
// runs from that intended time, so a stall is charged to every op queued
// behind it. Ops of one timeline share a connection and are therefore
// serial; lag is how long after both the intended time and the
// connection's last completion the op was actually sent, which is the
// generator's own lateness and not the server's.
func runTimeline(start time.Time, ops []op, warmup time.Duration, exec func(i int, o op, sent time.Time)) []opRecord {
	recs := make([]opRecord, 0, len(ops))
	free := start
	for i, o := range ops {
		intended := start.Add(o.due)
		sleepUntil(intended)
		sent := time.Now()
		earliest := intended
		if free.After(earliest) {
			earliest = free
		}
		exec(i, o, sent)
		done := time.Now()
		recs = append(recs, opRecord{
			kind: o.kind, due: o.due,
			latency: done.Sub(intended), lag: sent.Sub(earliest),
			inWindow: o.due >= warmup,
		})
		free = done
	}
	return recs
}

// openLoopStats reports the generator's own health for an open-loop
// window and marks the run invalid if the generator, not the server, was
// the bottleneck.
func (r *runResult) openLoopStats(recs []opRecord) {
	var lags latencies
	for _, rec := range recs {
		if rec.inWindow {
			lags = append(lags, rec.lag)
		}
	}
	lag := lags.ms(0.95)
	r.setN("client.sched_lag_ms_p95", lag, len(lags))
	if lag > 1 {
		r.invalid = append(r.invalid, fmt.Sprintf("generator ran late: sched_lag_ms_p95 %.3f > 1", lag))
	}
	if share := r.values["client.cpu_share_pct"]; share > 50 {
		r.invalid = append(r.invalid, fmt.Sprintf("generator used %.1f%% of the CPUs (> 50%%)", share))
	}
}

// byKind splits in-window latencies by op class and, within a class, by the
// slice the op was due in.
func byKind(recs []opRecord, warmup, window time.Duration) map[opKind][]latencies {
	out := make(map[opKind][]latencies)
	for _, rec := range recs {
		if !rec.inWindow {
			continue
		}
		if out[rec.kind] == nil {
			out[rec.kind] = make([]latencies, windowSlices)
		}
		k := min(int((rec.due-warmup)*windowSlices/window), windowSlices-1)
		out[rec.kind][k] = append(out[rec.kind][k], rec.latency)
	}
	return out
}

// flat joins a class's slices back into one sample.
func flat(slices []latencies) latencies {
	var all latencies
	for _, l := range slices {
		all = append(all, l...)
	}
	return all
}
