package main

import (
	"fmt"
	"os"
)

// runAA is the noise floor: every workload runs twice on the same binary
// and seed, the second pass in reverse order, and each end-to-end metric's
// relative difference is printed beside its bound. A difference past the
// bound between two runs of the same code means the benchmark, not a
// change, is what moved — so the mode exits non-zero.
func runAA(cfg runConfig) int {
	cfg.traced = false
	order := make([]string, 0, 2*len(workloads))
	for _, w := range workloads {
		order = append(order, w.name)
	}
	for i := len(workloads) - 1; i >= 0; i-- {
		order = append(order, workloads[i].name)
	}
	runs := make(map[string][]*runResult)
	code := 0
	for _, name := range order {
		cfg.workload = name
		res, err := runWorkload(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		res.report(cfg.out)
		if res.checks.failed > 0 {
			code = 1
		}
		runs[name] = append(runs[name], res)
	}
	fmt.Fprintf(cfg.out, "\n== A/A: same binary, same seed, run twice ==\n")
	fmt.Fprintf(cfg.out, "%-16s %-24s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
	for _, w := range workloads {
		a, b := runs[w.name][0], runs[w.name][1]
		if a.inputHash != b.inputHash {
			fmt.Fprintf(cfg.out, "%-16s input hashes differ: %s vs %s\n", w.name, a.inputHash, b.inputHash)
			code = 1
		}
		for _, d := range endToEnd {
			va, vb := a.values[d.name], b.values[d.name]
			// The share by which the second run is worse than the first, or
			// the first worse than the second: A/A has no "before".
			diff := 0.0
			if lo := min(va, vb); lo > 0 {
				diff = (max(va, vb) - lo) / lo
			}
			verdict := ""
			if diff > d.bound {
				verdict = "  EXCEEDS BOUND"
				code = 1
			}
			fmt.Fprintf(cfg.out, "%-16s %-24s %14.4f %14.4f %8.2f%% %6.0f%%%s\n", w.name, d.name, va, vb, 100*diff, 100*d.bound, verdict)
		}
		for _, r := range runs[w.name] {
			for _, why := range r.invalid {
				fmt.Fprintf(cfg.out, "%-16s INVALID %s\n", w.name, why)
			}
		}
	}
	return code
}
