package main

import (
	"fmt"
	"io"
)

// scrapeStats derives the per-layer numbers the server exports about
// itself from the difference of two /metrics scrapes around the window.
// frameBytes is the raw size of the frames stored in the window.
func (r *runResult) scrapeStats(d map[string]float64, frameBytes float64) {
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	meanUS := func(family string) float64 {
		return 1e6 * ratio(d[family+"_sum"], d[family+"_count"])
	}
	r.set("server.decode_us_mean", meanUS("aims_ingest_decode_seconds"))
	r.set("server.queue_wait_us_mean", meanUS("aims_ingest_queue_wait_seconds"))
	r.set("server.append_us_mean", meanUS("aims_ingest_append_seconds"))
	r.set("journal.wal_bytes_per_frame_byte", ratio(d["aims_wal_bytes_total"], frameBytes))
	r.set("journal.fsyncs_per_batch", ratio(d["aims_wal_fsync_seconds_count"], d["aims_ingest_batches_total"]))
	incr, rebuild := d[`aims_seal_seconds_count{mode="incremental"}`], d[`aims_seal_seconds_count{mode="rebuild"}`]
	r.set("core.seal_incremental_ratio", ratio(incr, incr+rebuild))
	hits, misses := d["aims_plan_cache_hits_total"], d["aims_plan_cache_misses_total"]
	r.set("propolyne.plan_hit_ratio", ratio(hits, hits+misses))
}

// layerMetrics names the replayed call sites as the benchmark's per-layer
// metrics: median wall self time per call, in the unit the name carries.
var layerMetrics = []struct {
	metric, site string
	perMS        bool // report milliseconds instead of microseconds
}{
	{"transport.tcp_rtt_us_per_batch", "transport.tcp_rtt", false},
	{"transport.ws_rtt_us_per_batch", "transport.ws_rtt", false},
	{"wire.encode_batch_us", "wire.encode_batch", false},
	{"wire.decode_batch_us", "wire.decode_batch", false},
	{"wire.decode_query_us", "wire.decode_query", false},
	{"wire.encode_result_us", "wire.encode_result", false},
	{"stream.handoff_us_per_batch", "stream.handoff", false},
	{"journal.append_us_per_batch", "journal.append", false},
	{"journal.snapshot_ms", "journal.snapshot", true},
	{"journal.recover_ms", "journal.recover", true},
	{"core.append_us_per_batch", "core.append", false},
	{"core.append_tracked_us_per_batch", "core.append_tracked", false},
	{"core.seal_cold_ms", "core.seal_cold", true},
	{"core.seal_incr_us", "core.seal_incr", false},
	{"core.exact_scan_us", "core.exact_scan", false},
	{"propolyne.plan_compile_us", "propolyne.plan_compile", false},
	{"propolyne.plan_lookup_hit_us", "propolyne.plan_lookup_hit", false},
	{"propolyne.dot_us", "propolyne.dot", false},
	{"propolyne.progressive_us", "propolyne.progressive", false},
	{"wavelet.transform_nd_ms", "wavelet.transform_nd", true},
	{"fleet.match_us", "fleet.match", false},
	{"fleet.eval_session_exact_us", "fleet.eval_session_exact", false},
	{"fleet.eval_session_approx_us", "fleet.eval_session_approx", false},
	{"fleet.merge_us", "fleet.merge", false},
	{"fleet.evaluate_ms", "fleet.evaluate", true},
}

// term is one layer's share of an op: the replayed call site and how many
// of its calls one op makes.
type term struct {
	site  string
	times float64
}

// recipe lists the server-side calls one op of the kind passes through.
// A transport round trip is charged at half: the probe's CPU and wall time
// cover both ends of the socket and the server is one of them.
func recipe(kind opKind, workload string, batch int, planHit float64) []term {
	query := []term{{"transport.tcp_rtt_query", 0.5}, {"wire.decode_query", 1}}
	plan := []term{{"propolyne.plan_lookup_hit", planHit}, {"propolyne.plan_compile", 1 - planHit}}
	switch kind {
	case opIngest:
		t := []term{{"transport.tcp_rtt", 0.5}, {"wire.decode_batch", 1}, {"stream.handoff", 1}}
		switch workload {
		case "ingest_durable":
			// One snapshot per default -snapshot-frames of ingest.
			t = append(t, term{"journal.append", 1}, term{"journal.snapshot", float64(batch) / 65536}, term{"core.append", 1})
		case "live_query":
			t = append(t, term{"core.append_tracked", 1})
		default:
			t = append(t, term{"core.append", 1})
		}
		return t
	case opExact:
		return append(query, term{"core.exact_scan", 1}, term{"wire.encode_result", 1})
	case opApprox:
		t := append(query, term{"core.seal_incr", 1})
		t = append(t, plan...)
		return append(t, term{"propolyne.dot", 1}, term{"wire.encode_result", 1})
	case opProg:
		t := append(query, term{"core.seal_incr", 1})
		t = append(t, plan...)
		return append(t, term{"propolyne.progressive", 1}, term{"wire.encode_result", progSteps})
	case opFleetExact:
		return append(query, term{"fleet.match", 1}, term{"fleet.eval_session_exact", fleetGloves}, term{"fleet.merge", 1}, term{"wire.encode_result", 1})
	case opFleetApprox:
		return append(query, term{"fleet.match", 1}, term{"fleet.eval_session_approx", fleetTrackers}, term{"fleet.merge", 1}, term{"wire.encode_result", 1})
	case opFleetIDs:
		return append(query, term{"fleet.match", 1}, term{"fleet.eval_session_exact", 8}, term{"fleet.merge", 1}, term{"wire.encode_result", 1})
	}
	return nil
}

// waterfall is one op class of a run laid out layer by layer: replayed
// self times beside what the client observed and what the server burned.
type waterfall struct {
	Op            string          `json:"op"`
	Count         int             `json:"count"`
	Lines         []waterfallLine `json:"layers"`
	LayersWallUS  float64         `json:"layers_wall_us"`
	LayersCPUUS   float64         `json:"layers_cpu_us"`
	ClientP50US   float64         `json:"client_p50_us"`
	WallRemainder float64         `json:"wall_remainder_us"`
}

type waterfallLine struct {
	Site   string  `json:"site"`
	Times  float64 `json:"calls_per_op"`
	WallUS float64 `json:"wall_us"`
	CPUUS  float64 `json:"cpu_us"`
}

// layerBudget turns the replay's statistics into the run's per-layer
// metrics and its waterfalls, and sums the layers' CPU against the CPU the
// server really used: what is left over is server.unattributed_cpu_pct,
// the cost no layer's public call accounts for.
func (r *runResult) layerBudget(stats map[string]layerStat, batch int) {
	for _, lm := range layerMetrics {
		st := stats[lm.site]
		v := st.WallUS
		if lm.perMS {
			v /= 1e3
		}
		r.setN(lm.metric, v, st.N)
	}
	if ev := stats["fleet.evaluate"].WallUS; ev > 0 {
		r.set("fleet.pool_speedup", fleetGloves*stats["fleet.eval_session_exact"].WallUS/ev)
	}

	planHit := r.values["propolyne.plan_hit_ratio"]
	totalCPU := 0.0
	for kind := opKind(0); kind < numOpKinds; kind++ {
		count := r.opMix[kind]
		if count == 0 {
			continue
		}
		w := waterfall{Op: kind.String(), Count: count}
		for _, t := range recipe(kind, r.workload, batch, planHit) {
			st := stats[t.site]
			line := waterfallLine{Site: t.site, Times: t.times, WallUS: t.times * st.WallUS, CPUUS: t.times * st.CPUUS}
			w.Lines = append(w.Lines, line)
			w.LayersWallUS += line.WallUS
			w.LayersCPUUS += line.CPUUS
		}
		w.ClientP50US = 1e3 * r.opP50[kind]
		w.WallRemainder = w.ClientP50US - w.LayersWallUS
		totalCPU += float64(count) * w.LayersCPUUS
		r.waterfall = append(r.waterfall, w)
	}
	if serverCPU := 1e6 * r.values["server_cpu_s"]; serverCPU > 0 {
		r.set("server.layers_cpu_us_per_op", totalCPU/float64(r.totalOps()))
		r.set("server.unattributed_cpu_pct", 100*(serverCPU-totalCPU)/serverCPU)
	}
}

func (r *runResult) totalOps() int {
	n := 0
	for _, c := range r.opMix {
		n += c
	}
	return n
}

// printWaterfall renders the per-batch and per-query waterfalls.
func (r *runResult) printWaterfall(w io.Writer) {
	for _, wf := range r.waterfall {
		fmt.Fprintf(w, "  waterfall %s (n=%d): layer self time per op\n", wf.Op, wf.Count)
		fmt.Fprintf(w, "    %-28s %8s %12s %12s\n", "call site", "calls", "wall us", "cpu us")
		for _, l := range wf.Lines {
			fmt.Fprintf(w, "    %-28s %8.3f %12.2f %12.2f\n", l.Site, l.Times, l.WallUS, l.CPUUS)
		}
		fmt.Fprintf(w, "    %-28s %8s %12.2f %12.2f\n", "sum of layers", "", wf.LayersWallUS, wf.LayersCPUUS)
		if wf.ClientP50US > 0 {
			fmt.Fprintf(w, "    %-28s %8s %12.2f\n", "client-observed p50", "", wf.ClientP50US)
			fmt.Fprintf(w, "    %-28s %8s %12.2f\n", "remainder (wall)", "", wf.WallRemainder)
		}
	}
	if _, ok := r.values["server.unattributed_cpu_pct"]; ok {
		fmt.Fprintf(w, "  server CPU per op %.2f us, layers account for %.2f us: remainder server.unattributed_cpu_pct = %.1f %%\n",
			r.values["server_cpu_us_per_op"], r.values["server.layers_cpu_us_per_op"], r.values["server.unattributed_cpu_pct"])
	}
}
