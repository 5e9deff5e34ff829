// Package aims holds the repository-level benchmark harness: one
// Benchmark per experiment in DESIGN.md's index (each regenerates a paper
// claim end to end; see cmd/aims-bench for the printable tables) plus
// micro-benchmarks of the hot substrate paths.
//
// Run everything with:
//
//	go test -bench=. -benchmem ./...
package aims

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"testing"
	"time"

	"aims/internal/core"
	"aims/internal/experiments"
	"aims/internal/fleet"
	"aims/internal/propolyne"
	"aims/internal/sensors"
	"aims/internal/stream"
	"aims/internal/svdstream"
	"aims/internal/synth"
	"aims/internal/vec"
	"aims/internal/wavelet"
	"aims/internal/wire"
)

// --- One benchmark per table/figure claim (T1, E1–E12) ---

func BenchmarkTable1SensorRegistry(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.RunT1(io.Discard)
	}
}

func BenchmarkE1SamplingBandwidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunE1(io.Discard)
		b.ReportMetric(float64(r.PolicyBytes["adaptive"])/float64(r.RawBytes), "adaptive-frac")
	}
}

func BenchmarkE2BlockUtilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunE2(io.Discard)
		last := len(r.Tiling) - 1
		b.ReportMetric(r.Tiling[last]/r.Bound[last], "frac-of-bound")
	}
}

func BenchmarkE3ProgressiveAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.RunE3(io.Discard)
	}
}

func BenchmarkE4ExactCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunE4(io.Discard)
		b.ReportMetric(float64(r.QueryCoeffs[len(r.QueryCoeffs)-1]), "coeffs-n512")
	}
}

func BenchmarkE5HybridPropolyne(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunE5(io.Discard)
		b.ReportMetric(float64(r.HybridCoeffs), "hybrid-coeffs")
	}
}

func BenchmarkE6BestBasis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.RunE6(io.Discard)
	}
}

func BenchmarkE7ASLRecognition(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunE7(io.Discard)
		b.ReportMetric(r.StreamAccuracy, "stream-acc")
	}
}

func BenchmarkE8ADHDDiagnosis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunE8(io.Discard)
		b.ReportMetric(r.Accuracy["linear SVM (paper's method)"], "svm-acc")
	}
}

func BenchmarkE9SVDviaPropolyne(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunE9(io.Discard)
		b.ReportMetric(r.SignatureSimilarity, "similarity")
	}
}

func BenchmarkE10IncrementalSVD(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunE10(io.Discard)
		b.ReportMetric(r.Speedup[len(r.Speedup)-1], "speedup-w512")
	}
}

func BenchmarkE11AcquisitionPipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.RunE11(io.Discard)
	}
}

func BenchmarkE12ProgressiveBlockIO(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.RunE12(io.Discard)
	}
}

// --- Ablations ---

func BenchmarkA1GroupByOrdering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.RunA1(io.Discard)
	}
}

func BenchmarkA2RandomProjection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.RunA2(io.Discard)
	}
}

func BenchmarkA3BufferPool(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.RunA3(io.Discard)
	}
}

func BenchmarkA4RefinedBounds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.RunA4(io.Discard)
	}
}

func BenchmarkA5ConcurrentThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.RunA5(io.Discard)
	}
}

// --- Substrate micro-benchmarks ---

func BenchmarkDWTAnalyzeD6(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, 1<<14)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	work := make([]float64, len(x))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, x)
		wavelet.Analyze(work, wavelet.D6, -1)
	}
	b.SetBytes(int64(len(x) * 8))
}

func BenchmarkLazyQueryHaar(b *testing.B) {
	const n = 1 << 16
	for i := 0; i < b.N; i++ {
		if _, err := wavelet.LazyQuery(n, 1234, 50000, vec.PolyConst(1), wavelet.Haar, -1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLazyQueryD6Degree2(b *testing.B) {
	const n = 1 << 16
	for i := 0; i < b.N; i++ {
		if _, err := wavelet.LazyQuery(n, 1234, 50000, vec.Poly{0, 0, 1}, wavelet.D6, -1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeltaTransform(b *testing.B) {
	const n = 1 << 16
	for i := 0; i < b.N; i++ {
		wavelet.DeltaTransform(n, i%n, 1, wavelet.D4, -1)
	}
}

func BenchmarkEngineExactCount(b *testing.B) {
	dims := []int{256, 256}
	cube := synth.ZipfCube(dims, 50000, 1.2, 3)
	e, err := propolyne.New(cube, dims, 0)
	if err != nil {
		b.Fatal(err)
	}
	q := propolyne.Query{Lo: []int{17, 40}, Hi: []int{200, 190}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.Exact(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineAppend(b *testing.B) {
	dims := []int{256, 256}
	e, err := propolyne.New(make([]float64, 256*256), dims, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Append([]int{i % 256, (i * 7) % 256}, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSVDSignature28(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	rows := make([][]float64, 128)
	for i := range rows {
		r := make([]float64, 28)
		for j := range r {
			r[j] = rng.NormFloat64()
		}
		rows[i] = r
	}
	m := vec.MatrixFromRows(rows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svdstream.SignatureOf(m)
	}
}

func BenchmarkIncrementalSignature(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	inc := svdstream.NewIncremental(28, 128)
	frame := make([]float64, 28)
	for i := 0; i < 128; i++ {
		for j := range frame {
			frame[j] = rng.NormFloat64()
		}
		inc.Push(append([]float64(nil), frame...))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range frame {
			frame[j] = rng.NormFloat64()
		}
		inc.Push(append([]float64(nil), frame...))
		inc.Signature()
	}
}

func BenchmarkRecognizerFeed(b *testing.B) {
	vocab := synth.Vocabulary(8, 4)
	rng := rand.New(rand.NewSource(5))
	templates := map[string]svdstream.Signature{}
	for _, s := range vocab {
		templates[s.Name] = svdstream.SignatureFromMoments(
			svdstream.MomentMatrix(s.Render(1, 0.1, rng)))
	}
	frames, _ := synth.SignStream(vocab, synth.StreamOptions{
		Count: 50, Noise: 0.4, DurJitter: 0.3, GapTicks: 60, Seed: 6,
	})
	r := svdstream.NewRecognizer(templates, svdstream.RecognizerConfig{
		Dims:          synth.SignDims,
		RestThreshold: svdstream.CalibrateRest(frames[:20]),
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Feed(i, frames[i%len(frames)])
	}
}

func BenchmarkDeviceFrame(b *testing.B) {
	dev := sensors.NewDevice(sensors.GloveSpecs(), sensors.DefaultClock, 1, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dev.Frame(i)
	}
}

// --- Live-ingest seal path (bench/ reports core.seal_cold_ms, seal_incr_us) ---

// appendAt appends one frame at device tick tick, stamped tick/Rate
// seconds, through AppendFrames.
func appendAt(ls *core.LiveStore, tick int, frame []float64) error {
	_, err := ls.AppendFrames([]stream.Frame{{T: float64(tick) / ls.Config().Rate, Values: frame}})
	return err
}

// benchLiveStore fills a default 256×64-per-channel cube with 8192 frames
// and returns the store plus the next free tick.
func benchLiveStore(b *testing.B, channels, threshold int) (*core.LiveStore, *rand.Rand, int) {
	b.Helper()
	const frames = 8192
	mins := make([]float64, channels)
	maxs := make([]float64, channels)
	for c := range mins {
		mins[c], maxs[c] = -10, 10
	}
	ls, err := core.NewLiveStore(mins, maxs, core.LiveStoreConfig{
		Rate:               100,
		HorizonTicks:       4 * frames,
		SealDeltaThreshold: threshold,
	})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	fr := make([]float64, channels)
	for i := 0; i < frames; i++ {
		for c := range fr {
			fr[c] = rng.Float64()*20 - 10
		}
		if err := appendAt(ls, i, fr); err != nil {
			b.Fatal(err)
		}
	}
	return ls, rng, frames
}

// benchSealLoop appends delta frames (off the clock) then times the seal.
func benchSealLoop(b *testing.B, ls *core.LiveStore, rng *rand.Rand, tick, delta int) {
	fr := make([]float64, ls.Channels())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := 0; j < delta; j++ {
			for c := range fr {
				fr[c] = rng.Float64()*20 - 10
			}
			if err := appendAt(ls, tick, fr); err != nil {
				b.Fatal(err)
			}
			tick++
		}
		b.StartTimer()
		if _, err := ls.Seal(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLiveStoreSealCold rebuilds the whole engine on every seal
// (incremental sealing disabled): the pre-delta-log behaviour.
func BenchmarkLiveStoreSealCold(b *testing.B) {
	ls, rng, tick := benchLiveStore(b, 4, -1)
	benchSealLoop(b, ls, rng, tick, 1)
}

// BenchmarkLiveStoreSealIncremental replays only the delta log recorded
// since the previous seal; sub-benchmarks vary the delta size (frames
// appended between seals) on the same 8192-frame session.
func BenchmarkLiveStoreSealIncremental(b *testing.B) {
	for _, delta := range []int{16, 82, 512} {
		b.Run(fmt.Sprintf("delta=%d", delta), func(b *testing.B) {
			ls, rng, tick := benchLiveStore(b, 4, 0)
			if _, err := ls.Seal(); err != nil { // first seal: full build, starts tracking
				b.Fatal(err)
			}
			benchSealLoop(b, ls, rng, tick, delta)
		})
	}
}

// BenchmarkLiveApproxAfterAppend times what an analyst querying beside live
// acquisition pays per answer: append one 128-frame batch, then an
// approximate COUNT at budget 64. At this geometry the query walks the
// count cube, so that is the plan lookup, the data energy behind the error
// bound — the buckets the batch touched rescanned — and the walk together;
// a cube-sized pass between append and answer shows here.
func BenchmarkLiveApproxAfterAppend(b *testing.B) {
	for _, channels := range []int{4, 28} {
		b.Run(fmt.Sprintf("channels=%d", channels), func(b *testing.B) {
			ls, rng, tick := benchLiveStore(b, channels, 0)
			// First query: plan compile and the first energy pass.
			if _, _, err := ls.ApproximateCount(0, 0, 60, 64); err != nil {
				b.Fatal(err)
			}
			batch := make([]stream.Frame, 128)
			for j := range batch {
				batch[j].Values = make([]float64, channels)
				for c := range batch[j].Values {
					batch[j].Values[c] = rng.Float64()*20 - 10
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range batch {
					batch[j].T = float64(tick) / 100
					tick++
				}
				if n, err := ls.AppendFrames(batch); err != nil || n != len(batch) {
					b.Fatal(n, err)
				}
				if _, _, err := ls.ApproximateCount(0, 0, 60, 64); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Compiled query plans (bench/ reports propolyne.plan_compile_us, plan_lookup_hit_us) ---

// BenchmarkQueryPlanColdVsCached contrasts the two query paths: cold
// compiles the plan (lazy wavelet transforms + sorting) before every
// evaluation — the pre-plan behaviour — while cached pays one key lookup
// and the allocation-free sparse dot product.
func BenchmarkQueryPlanColdVsCached(b *testing.B) {
	dims := []int{512, 512}
	cube := synth.ZipfCube(dims, 100000, 1.2, 3)
	e, err := propolyne.New(cube, dims, 2)
	if err != nil {
		b.Fatal(err)
	}
	q := propolyne.Query{
		Lo:    []int{17, 40},
		Hi:    []int{400, 480},
		Polys: []vec.Poly{nil, {0, 0, 1}},
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p, err := e.CompilePlan(q)
			if err != nil {
				b.Fatal(err)
			}
			e.EvalPlan(p)
		}
	})
	b.Run("cached", func(b *testing.B) {
		cache := propolyne.NewPlanCache(1 << 16)
		if _, err := cache.Lookup(e, q); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p, err := cache.Lookup(e, q)
			if err != nil {
				b.Fatal(err)
			}
			e.EvalPlan(p)
		}
	})
}

// BenchmarkFleetQueryPlanCache runs an approximate fleet COUNT over 256
// same-geometry sessions through the warm shared plan cache: one plan
// serves every session.
func BenchmarkFleetQueryPlanCache(b *testing.B) {
	const sessionsN, frames, rate = 256, 256, 100.0
	rng := rand.New(rand.NewSource(21))
	sessions := make([]fleet.Session, sessionsN)
	for i := range sessions {
		ls, err := core.NewLiveStore([]float64{-1}, []float64{1}, core.LiveStoreConfig{
			Rate: rate, HorizonTicks: frames, TimeBuckets: 64, ValueBins: 16,
		})
		if err != nil {
			b.Fatal(err)
		}
		fr := []float64{0}
		for tick := 0; tick < frames; tick++ {
			fr[0] = rng.Float64()*2 - 1
			if err := appendAt(ls, tick, fr); err != nil {
				b.Fatal(err)
			}
		}
		sessions[i] = fleet.Session{ID: uint64(i + 1), Class: "sim", Store: ls}
	}
	req := fleet.Request{
		Kind: wire.QueryApproxCount, Channel: 0, T0: 0, T1: frames / rate,
		Arg: 64, Scope: wire.FleetScope{Class: "sim"},
	}
	cfg := fleet.Config{Timeout: time.Minute}
	run := func(b *testing.B) {
		r := fleet.Evaluate(context.Background(), sessions, req, cfg)
		if !r.OK {
			b.Fatalf("fleet query failed: code=%d", r.Code)
		}
	}
	run(b) // seal every session store and warm the cache off the clock
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(b)
	}
}

// BenchmarkTransformNDParallel runs the multi-dimensional transform with
// the per-line fan-out forced to 1 (serial), 4, and GOMAXPROCS workers.
func BenchmarkTransformNDParallel(b *testing.B) {
	dims := wavelet.Dims{8, 64, 64}
	rng := rand.New(rand.NewSource(9))
	src := make([]float64, dims.Size())
	for i := range src {
		src[i] = rng.NormFloat64()
	}
	filters := []wavelet.Filter{wavelet.D6, wavelet.D6, wavelet.D6}
	for _, workers := range []int{1, 4, 0} {
		name := fmt.Sprintf("workers=%d", workers)
		if workers == 0 {
			name = "workers=max"
		}
		b.Run(name, func(b *testing.B) {
			prev := wavelet.TransformWorkers
			wavelet.TransformWorkers = workers
			defer func() { wavelet.TransformWorkers = prev }()
			work := make([]float64, len(src))
			b.SetBytes(int64(len(src) * 8))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(work, src)
				wavelet.TransformND(work, dims, filters)
			}
		})
	}
}
