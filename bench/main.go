// Command bench is the capacity benchmark of the AIMS middle tier. It builds
// cmd/aims-server, runs it as a child process, drives it over loopback
// through the public wire client surface with inputs made from a seed,
// checks every answer against a reference model of the frames it sent, and
// prints each metric by name with its unit, direction and bound.
//
//	go run ./bench                                   # all four workloads, untraced then traced
//	go run ./bench -workload live_query -seed 7      # one workload, end-to-end metrics
//	go run ./bench -workload fleet_scan -trace 1     # one traced run: per-layer metrics
//	go run ./bench -aa                               # A/A: every workload twice, differences beside bounds
//
// A single-workload run ends its standard output with one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{…}} — the end-to-end
// metrics when untraced, the per-layer metrics when traced.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "run one workload: ingest_mem|ingest_durable|live_query|fleet_scan (empty: all four)")
		seed     = flag.Int64("seed", 1, "seed every input is generated from")
		seconds  = flag.Int("seconds", 20, "timed window in seconds, after a 3 s warm-up")
		trace    = flag.String("trace", "0", "0: end-to-end run, tracing off; 1: traced run reporting per-layer metrics; any other value: traced run that also writes its spans to that file")
		aa       = flag.Bool("aa", false, "A/A mode: run every workload twice on the same binary and seed and compare")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 {
		fmt.Fprintln(os.Stderr, "usage: go run ./bench [-workload name] [-seed n] [-seconds n] [-trace 0|1|file] [-aa]")
		os.Exit(2)
	}
	os.Exit(run(*workload, *seed, *seconds, *trace, *aa))
}

func run(workload string, seed int64, seconds int, trace string, aa bool) int {
	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	cfg := runConfig{
		seed:    seed,
		warmup:  3 * time.Second,
		window:  time.Duration(seconds) * time.Second,
		quiet:   3 * time.Second,
		setups:  3,
		traced:  trace != "0",
		workDir: filepath.Join(root, ".bench_build"),
		out:     os.Stdout,
	}
	if trace != "0" && trace != "1" {
		cfg.traceOut = trace
	}
	if cfg.serverBin, cfg.buildTime, err = buildServer(root, cfg.workDir); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer cfg.cleanup()
	fmt.Fprintf(cfg.out, "built cmd/aims-server in %.2f s (client.build_s)\n", cfg.buildTime.Seconds())

	switch {
	case aa:
		return runAA(cfg)
	case workload == "":
		return runAll(cfg)
	}
	cfg.workload = workload
	res, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	res.report(cfg.out)
	if err := res.printJSON(cfg.out); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if res.checks.failed > 0 {
		return 1
	}
	return 0
}

// runWorkload is one run of one workload.
func runWorkload(cfg runConfig) (*runResult, error) {
	res := newResult(cfg)
	res.set("client.build_s", cfg.buildTime.Seconds())
	batch := ingestBatch
	var err error
	switch cfg.workload {
	case "ingest_mem":
		err = runIngest(cfg, res, false)
	case "ingest_durable":
		err = runIngest(cfg, res, true)
	case "live_query":
		batch = liveBatch
		err = runLiveQuery(cfg, res)
	case "fleet_scan":
		err = runFleetScan(cfg, res)
	default:
		err = fmt.Errorf("bench: unknown workload %q", cfg.workload)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if !cfg.traced {
		return res, nil
	}
	rep, err := replayLayers(cfg, batch)
	if err != nil {
		return nil, fmt.Errorf("%s: layer replay: %w", cfg.workload, err)
	}
	res.set("wire.bytes_per_frame", rep.bytesPerFrame)
	res.layerBudget(rep.stats, batch)
	if cfg.traceOut != "" {
		if err := writeTrace(cfg.traceOut, res.traceFile(rep.spans)); err != nil {
			return nil, err
		}
		fmt.Fprintf(cfg.out, "wrote %s\n", cfg.traceOut)
	}
	return res, nil
}

// traceFile joins the window's client-side spans and the replay's spans
// into what a traced run writes at exit.
func (r *runResult) traceFile(replay []span) traceFile {
	spans := append([]span(nil), r.tr.spans...)
	for _, s := range replay {
		if s.Parent >= 0 {
			s.Parent += len(r.tr.spans)
		}
		spans = append(spans, s)
	}
	byName := selfByName(spans)
	return traceFile{
		Workload: r.workload, Seed: r.seed, ScheduleHash: r.inputHash,
		SelfByName: byName, SelfByLayer: selfByLayer(byName),
		Waterfall: r.waterfall, Metrics: r.values, Spans: spans,
	}
}

// runAll is `go run ./bench`: every workload, untraced then traced.
func runAll(cfg runConfig) int {
	code := 0
	for _, w := range workloads {
		cfg.workload = w.name
		var cpuPerOp [2]float64
		for i, traced := range []bool{false, true} {
			cfg.traced = traced
			cfg.traceOut = ""
			if traced {
				cfg.traceOut = filepath.Join(cfg.workDir, "trace-"+w.name+".json")
			}
			res, err := runWorkload(cfg)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				code = 1
				break
			}
			// The same window with and without spans: the difference in the
			// server CPU an op costs is what tracing adds.
			cpuPerOp[i] = res.values["server_cpu_us_per_op"]
			if traced && cpuPerOp[0] > 0 {
				res.set("client.trace_overhead_pct", 100*(cpuPerOp[1]-cpuPerOp[0])/cpuPerOp[0])
			}
			res.report(cfg.out)
			if res.checks.failed > 0 {
				code = 1
			}
		}
	}
	return code
}

// report prints every metric the run produced, by name, with its unit,
// direction and (end-to-end) bound.
func (r *runResult) report(w io.Writer) {
	mode := "end-to-end, tracing off"
	if r.tr != nil {
		mode = "traced"
	}
	fmt.Fprintf(w, "\n== %s  seed %d  %s  input hash %s ==\n", r.workload, r.seed, mode, r.inputHash)
	line := func(d metricDef) {
		v, ok := r.values[d.name]
		if !ok {
			return
		}
		dir := "lower is better"
		if d.higher {
			dir = "higher is better"
		}
		extra := ""
		if d.bound > 0 {
			extra = fmt.Sprintf(", bound %.0f %%", 100*d.bound)
		}
		if n, ok := r.counts[d.name]; ok {
			extra += fmt.Sprintf(", n=%d", n)
		}
		fmt.Fprintf(w, "  %-36s %14.4f %-6s (%s%s)\n", d.name, v, d.unit, dir, extra)
	}
	for _, d := range endToEnd {
		line(d)
	}
	fmt.Fprintf(w, "  %-36s %14.6f %-6s (lower is better, may not rise; %d failed of %d ops)\n",
		"failed_ratio", float64(r.checks.failed)/math.Max(float64(r.checks.attempted), 1), "ratio", r.checks.failed, r.checks.attempted)
	for _, d := range perLayer {
		line(d)
	}
	if v, ok := r.values["client.trace_overhead_pct"]; ok {
		fmt.Fprintf(w, "  %-36s %14.4f %-6s (traced vs untraced server CPU per op)\n", "client.trace_overhead_pct", v, "%")
	}
	if r.tr != nil {
		r.printWaterfall(w)
	}
	for _, f := range r.checks.first {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
	for _, why := range r.invalid {
		fmt.Fprintf(w, "  INVALID %s\n", why)
	}
}

// printJSON writes the contract's last line: the end-to-end metrics of an
// untraced run, the per-layer metrics of a traced one.
func (r *runResult) printJSON(w io.Writer) error {
	defs := endToEnd
	if r.tr != nil {
		defs = perLayer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{
		Correct: r.checks.failed == 0 && r.checks.attempted > 0, Attempted: r.checks.attempted, Failed: r.checks.failed,
		Metrics: make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		out.Metrics[d.name] = metric{Value: r.values[d.name], Unit: d.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
