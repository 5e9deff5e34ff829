// Command aims-bench regenerates every experiment table of the AIMS
// reproduction (T1, E1–E20, A1–A5 in DESIGN.md). Run it with no arguments for the
// full suite, or pass experiment IDs to run a subset:
//
//	aims-bench            # everything
//	aims-bench E3 E7      # just those two
//	aims-bench -json E3   # machine-readable results on stdout
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"aims/internal/experiments"
)

// result is one experiment's machine-readable record.
type result struct {
	ID     string  `json:"id"`
	Claim  string  `json:"claim"`
	WallMS float64 `json:"wall_ms"`
	Output string  `json:"output"`
}

// report is the top-level -json document.
type report struct {
	GoVersion string   `json:"go_version"`
	GOOS      string   `json:"goos"`
	GOARCH    string   `json:"goarch"`
	Started   string   `json:"started"`
	WallMS    float64  `json:"wall_ms"`
	Results   []result `json:"results"`
}

func main() {
	jsonOut := flag.Bool("json", false, "emit results as JSON on stdout (tables go into each result's output field)")
	flag.Parse()

	want := map[string]bool{}
	for _, a := range flag.Args() {
		want[strings.ToUpper(a)] = true
	}
	start := time.Now()
	rep := report{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Started:   start.UTC().Format(time.RFC3339),
	}
	ran := 0
	for _, r := range experiments.All() {
		if len(want) > 0 && !want[r.ID] {
			continue
		}
		ran++
		t0 := time.Now()
		if *jsonOut {
			var buf bytes.Buffer
			r.Run(&buf)
			rep.Results = append(rep.Results, result{
				ID: r.ID, Claim: r.Claim,
				WallMS: float64(time.Since(t0).Microseconds()) / 1000,
				Output: buf.String(),
			})
			continue
		}
		fmt.Printf("\n### %s — %s\n", r.ID, r.Claim)
		r.Run(os.Stdout)
		fmt.Printf("  [%s completed in %s]\n", r.ID, time.Since(t0).Round(time.Millisecond))
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "no experiments matched %v; known IDs:", flag.Args())
		for _, r := range experiments.All() {
			fmt.Fprintf(os.Stderr, " %s", r.ID)
		}
		fmt.Fprintln(os.Stderr)
		os.Exit(2)
	}
	rep.WallMS = float64(time.Since(start).Microseconds()) / 1000
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	fmt.Printf("\n%d experiment(s) in %s\n", ran, time.Since(start).Round(time.Millisecond))
}
