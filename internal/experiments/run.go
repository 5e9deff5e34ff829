package experiments

import "io"

// Runner is one named experiment.
type Runner struct {
	ID, Claim string
	Run       func(w io.Writer)
}

// All lists every experiment in DESIGN.md order.
func All() []Runner {
	return []Runner{
		{"T1", "CyberGlove sensor registry (paper Table 1)", func(w io.Writer) { RunT1(w) }},
		{"E1", "adaptive sampling needs far less bandwidth than fixed/grouped/zip; ADPCM adds little", func(w io.Writer) { RunE1(w) }},
		{"E2", "tiling allocation approaches the 1+lgB utilisation bound", func(w io.Writer) { RunE2(w) }},
		{"E3", "query approximation accurate early and data-independent; data approximation varies wildly", func(w io.Writer) { RunE3(w) }},
		{"E4", "exact polynomial range-sums at polylog cost", func(w io.Writer) { RunE4(w) }},
		{"E5", "hybrid basis choice dominates pure relational and pure ProPolyne", func(w io.Writer) { RunE5(w) }},
		{"E6", "best-basis selection adapts the transform per dimension", func(w io.Writer) { RunE6(w) }},
		{"E7", "weighted-sum SVD recognises and isolates variable-length motions in-stream", func(w io.Writer) { RunE7(w) }},
		{"E8", "SVM on tracker motion speed separates ADHD vs control at ≈86%", func(w io.Writer) { RunE8(w) }},
		{"E9", "SVD similarity computable from ProPolyne second-order range-sums", func(w io.Writer) { RunE9(w) }},
		{"E10", "incremental SVD beats per-step recomputation", func(w io.Writer) { RunE10(w) }},
		{"E11", "double-buffered acquisition sustains the device clock", func(w io.Writer) { RunE11(w) }},
		{"E12", "importance-ordered block fetches converge in a fraction of the I/Os", func(w io.Writer) { RunE12(w) }},
		{"A1", "ablation: GROUP BY shares I/O across buckets; fetch-ordering objective trade", func(w io.Writer) { RunA1(w) }},
		{"A2", "ablation: random-projection SVD similarity accuracy/cost trade", func(w io.Writer) { RunA2(w) }},
		{"A3", "ablation: tiling locality becomes LRU buffer-pool hit rate", func(w io.Writer) { RunA3(w) }},
		{"A4", "ablation: per-subband refinement tightens the progressive error bound", func(w io.Writer) { RunA4(w) }},
		{"A5", "ablation: concurrent query throughput under a live appender", func(w io.Writer) { RunA5(w) }},
	}
}
