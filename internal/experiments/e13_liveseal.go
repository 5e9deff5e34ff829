package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"aims/internal/core"
)

// E13Result reports live_seal: sealing cost during live ingest, cold
// rebuild vs incremental delta replay.
type E13Result struct {
	CubeCells int
	Frames    int
	ColdMS    float64
	Deltas    []int     // frames appended between seals
	IncrMS    []float64 // incremental seal wall time per delta size
	Speedup   []float64 // ColdMS / IncrMS
}

// RunE13 measures the live_seal experiment: a session's LiveStore answers
// approximate queries through a sealed ProPolyne engine, and §3.1.1's
// sparse point-mass transform lets the seal apply only the (channel,
// time-bucket, value-bin) delta since the last seal instead of
// retransforming the whole cube. We ingest a synthetic glove session into
// the default 256×64-per-channel cube, then time a from-scratch seal
// (incremental sealing disabled) against incremental seals at several
// delta sizes. The incremental cost scales with the delta, not the cube.
func RunE13(w io.Writer) E13Result {
	const (
		channels = 4
		frames   = 8192
		rate     = 100.0
	)
	rng := rand.New(rand.NewSource(77))
	mins := make([]float64, channels)
	maxs := make([]float64, channels)
	for c := range mins {
		mins[c], maxs[c] = -10, 10
	}
	// Horizon leaves room past the initial fill so delta appends land in
	// fresh time buckets (the live edge) instead of clamping into the last.
	cfg := core.LiveStoreConfig{Rate: rate, HorizonTicks: 4 * frames}
	frame := func() []float64 {
		fr := make([]float64, channels)
		for c := range fr {
			fr[c] = rng.Float64()*20 - 10
		}
		return fr
	}
	fill := func(ls *core.LiveStore, n, fromTick int) {
		for i := 0; i < n; i++ {
			if err := ls.AppendFrame(fromTick+i, frame()); err != nil {
				panic(err)
			}
		}
	}
	// timeSeal appends delta frames and seals, repeating until enough wall
	// time accumulates for a stable per-seal figure.
	timeSeal := func(ls *core.LiveStore, delta int, tick *int) float64 {
		reps := 0
		var total time.Duration
		for total < 80*time.Millisecond || reps < 3 {
			fill(ls, delta, *tick)
			*tick += delta
			t0 := time.Now()
			if _, err := ls.Seal(); err != nil {
				panic(err)
			}
			total += time.Since(t0)
			reps++
		}
		return float64(total.Microseconds()) / 1000 / float64(reps)
	}

	var res E13Result
	res.Frames = frames
	res.CubeCells = channels * 256 * 64

	// Cold baseline: incremental sealing disabled, every seal rebuilds.
	coldCfg := cfg
	coldCfg.SealDeltaThreshold = -1
	cold, err := core.NewLiveStore(mins, maxs, coldCfg)
	if err != nil {
		panic(err)
	}
	tick := 0
	fill(cold, frames, tick)
	tick = frames
	res.ColdMS = timeSeal(cold, 1, &tick)

	tb := &Table{
		Title: fmt.Sprintf("E13 — live_seal: incremental seal vs rebuild (%d-channel 256×64 cube, %d frames)",
			channels, frames),
		Columns: []string{"delta frames", "delta frac", "seal (ms)", "vs cold rebuild"},
	}
	tb.AddRow(frames, "cold", res.ColdMS, "1.0×")

	inc, err := core.NewLiveStore(mins, maxs, cfg)
	if err != nil {
		panic(err)
	}
	tick = 0
	fill(inc, frames, tick)
	tick = frames
	if _, err := inc.Seal(); err != nil { // first seal: full build, starts tracking
		panic(err)
	}
	for _, delta := range []int{16, 82, 512} { // 0.2 %, 1 %, 6.25 % of the session
		ms := timeSeal(inc, delta, &tick)
		res.Deltas = append(res.Deltas, delta)
		res.IncrMS = append(res.IncrMS, ms)
		speed := res.ColdMS / ms
		res.Speedup = append(res.Speedup, speed)
		tb.AddRow(delta, fmt.Sprintf("%.2f%%", 100*float64(delta)/frames), ms, fmt.Sprintf("%.1f×", speed))
	}
	tb.Note("cold = SealDeltaThreshold<0 (every seal copies the cube and reruns the multi-pass")
	tb.Note("wavelet transform); incremental seals replay the delta log's cell offsets through")
	tb.Note("Engine.AppendOffsets, which keeps the bound's data energy current as it writes, so")
	tb.Note("seal AND the approximate answer after it cost O(delta since last seal), not O(cube)")
	tb.Render(w)
	return res
}
