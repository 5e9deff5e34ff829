// Command aims-bench prints the experiment tables that reproduce the AIMS
// paper's own claims (T1, E1–E12 and A1–A5 in DESIGN.md). Run it
// with no arguments for the full suite, or pass experiment IDs to run a
// subset:
//
//	aims-bench            # everything
//	aims-bench E3 E7      # just those two
//
// An unknown ID — including a retired one (E13–E20) — exits 2 with the
// known-ID list. The network middle tier is measured by `go run ./bench`.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"aims/internal/experiments"
)

func main() {
	flag.Parse()

	known := map[string]bool{}
	for _, r := range experiments.All() {
		known[r.ID] = true
	}
	want := map[string]bool{}
	for _, a := range flag.Args() {
		id := strings.ToUpper(a)
		if !known[id] {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; known IDs:", a)
			for _, r := range experiments.All() {
				fmt.Fprintf(os.Stderr, " %s", r.ID)
			}
			fmt.Fprintln(os.Stderr)
			os.Exit(2)
		}
		want[id] = true
	}

	start := time.Now()
	ran := 0
	for _, r := range experiments.All() {
		if len(want) > 0 && !want[r.ID] {
			continue
		}
		ran++
		t0 := time.Now()
		fmt.Printf("\n### %s — %s\n", r.ID, r.Claim)
		r.Run(os.Stdout)
		fmt.Printf("  [%s completed in %s]\n", r.ID, time.Since(t0).Round(time.Millisecond))
	}
	fmt.Printf("\n%d experiment(s) in %s\n", ran, time.Since(start).Round(time.Millisecond))
}
