// Package core assembles the four AIMS subsystems into the integrated
// system of the paper's Fig. 1: acquisition (double-buffered capture +
// Nyquist-based sampling + per-dimension basis selection), storage (the
// quantised immersidata cube, wavelet-transformed per dimension), off-line
// query and analysis (ProPolyne range aggregates), and online query and
// analysis (weighted-sum-SVD stream recognition). It is the public façade
// the examples and command-line tools build on.
package core

import (
	"fmt"
	"math"
	"sync"

	"aims/internal/compress"
	"aims/internal/propolyne"
	"aims/internal/stream"
	"aims/internal/svdstream"
	"aims/internal/vec"
)

// Config shapes an AIMS instance.
type Config struct {
	// DeviceRate is the sensor clock in Hz (default 100, the CyberGlove
	// clock of §2.2).
	DeviceRate float64
	// TimeBuckets is the time resolution of the immersidata cube (power of
	// two, default 512).
	TimeBuckets int
	// ValueBins is the per-channel value quantisation (power of two,
	// default 128).
	ValueBins int
	// MaxDegree is the highest polynomial degree the ProPolyne store must
	// answer (default 2: VARIANCE and COVARIANCE work).
	MaxDegree int
	// AcquireBuffer is the double-buffering batch size in frames
	// (default 256).
	AcquireBuffer int
}

func (c Config) withDefaults() Config {
	if c.DeviceRate <= 0 {
		c.DeviceRate = 100
	}
	if c.TimeBuckets <= 0 {
		c.TimeBuckets = 512
	}
	if c.ValueBins <= 0 {
		c.ValueBins = 128
	}
	if c.MaxDegree <= 0 {
		c.MaxDegree = 2
	}
	if c.AcquireBuffer <= 0 {
		c.AcquireBuffer = 256
	}
	return c
}

// System is one AIMS instance.
type System struct {
	cfg Config
}

// New creates a system with the given configuration.
func New(cfg Config) *System {
	return &System{cfg: cfg.withDefaults()}
}

// Config returns the effective configuration.
func (s *System) Config() Config { return s.cfg }

// Acquire drives the double-buffered acquisition pipeline over a frame
// source and returns the captured time-major frames plus pipeline stats.
func (s *System) Acquire(src stream.Source) ([][]float64, stream.AcquireStats) {
	var frames [][]float64
	stats := stream.Acquire(src, s.cfg.AcquireBuffer, func(batch []stream.Frame) {
		for _, f := range batch {
			frames = append(frames, f.Values)
		}
	})
	return frames, stats
}

// Store is a populated immersidata store: the quantised
// (channel, time-bucket, value-bin) cube behind a ProPolyne engine.
// Channel and time are standard dimensions when the hybrid chooser says
// so; the value dimension is wavelet-transformed so polynomial measures
// evaluate sparsely.
//
// Concurrency contract (the server's live-session path depends on it):
// all mutation goes through AppendFrame, which holds the store's write
// lock for the whole frame, so a concurrent query never observes a frame
// with only some of its channels appended. Query methods and WriteTo take
// the read lock and may run concurrently with each other and with the
// engine's own internal synchronisation. Code that reaches into
// Engine.Coeffs directly (tests, the block-store builder) is only safe
// when no AppendFrame is in flight.
type Store struct {
	Engine *propolyne.Engine

	Channels       int
	TimeBuckets    int
	ValueBins      int
	TicksPerBucket int
	Rate           float64

	// mu makes AppendFrame atomic with respect to queries: the engine
	// synchronises individual Append calls, but one frame is Channels
	// appends and must become visible as a unit.
	mu sync.RWMutex

	quant []compress.Quantizer // per channel
}

// BuildStore quantises a time-major frame recording into the immersidata
// schema and populates the ProPolyne engine over it.
func (s *System) BuildStore(frames [][]float64) (*Store, error) {
	if len(frames) == 0 {
		return nil, fmt.Errorf("core: no frames to store")
	}
	channels := len(frames[0])
	chDim := nextPow2(channels)
	cfg := s.cfg

	ticksPerBucket := (len(frames) + cfg.TimeBuckets - 1) / cfg.TimeBuckets
	if ticksPerBucket < 1 {
		ticksPerBucket = 1
	}

	// Per-channel quantisers over the observed range.
	bits := log2(cfg.ValueBins)
	quant := make([]compress.Quantizer, channels)
	for c := 0; c < channels; c++ {
		col := make([]float64, len(frames))
		for i := range frames {
			col[i] = frames[i][c]
		}
		quant[c] = compress.QuantizerFor(col, bits)
	}

	dims := []int{chDim, cfg.TimeBuckets, cfg.ValueBins}
	cube := make([]float64, chDim*cfg.TimeBuckets*cfg.ValueBins)
	for t, fr := range frames {
		tb := t / ticksPerBucket
		if tb >= cfg.TimeBuckets {
			tb = cfg.TimeBuckets - 1
		}
		for c, v := range fr {
			bin := quant[c].Quantize(v)
			cube[(c*cfg.TimeBuckets+tb)*cfg.ValueBins+bin]++
		}
	}

	// Basis per dimension via the hybrid cost model: channel queries are
	// usually single-channel (tiny fraction), time ranges moderate, value
	// scans full-domain.
	bases, err := propolyne.ChooseBases(dims, propolyne.QueryTemplate{
		RangeFraction: []float64{1 / float64(chDim), 0.25, 1},
		MaxDegree:     cfg.MaxDegree,
	}, propolyne.DefaultCostModel)
	if err != nil {
		return nil, err
	}
	eng, err := propolyne.NewWithBases(cube, dims, bases)
	if err != nil {
		return nil, err
	}
	return &Store{
		Engine:         eng,
		Channels:       channels,
		TimeBuckets:    cfg.TimeBuckets,
		ValueBins:      cfg.ValueBins,
		TicksPerBucket: ticksPerBucket,
		Rate:           cfg.DeviceRate,
		quant:          quant,
	}, nil
}

// bucketRange converts a [t0, t1] range in seconds to inclusive time-bucket
// indices, both ends clamped into [0, buckets): ingest folds every frame
// past the horizon into the final bucket, so a range that starts (or ends)
// out there reads the final bucket too — exactly as an over-long t1 does —
// rather than indexing past the channel's rows. The clamp happens before
// the float → int conversion, which is undefined for out-of-range values.
// Both stores use it, so they cannot disagree.
func bucketRange(t0, t1, rate float64, ticksPerBucket, buckets int) (lo, hi int) {
	clamp := func(t float64) int {
		b := t * rate / float64(ticksPerBucket)
		if !(b > 0) { // negative or NaN
			return 0
		}
		if b >= float64(buckets) {
			return buckets - 1
		}
		return int(b)
	}
	lo, hi = clamp(t0), clamp(t1)
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// timeRange converts seconds to bucket indices, clamped to the store.
func (st *Store) timeRange(t0, t1 float64) (int, int) {
	return bucketRange(t0, t1, st.Rate, st.TicksPerBucket, st.TimeBuckets)
}

func (st *Store) box(channel int, t0, t1 float64) (propolyne.Box, error) {
	if channel < 0 || channel >= st.Channels {
		return propolyne.Box{}, fmt.Errorf("core: channel %d out of [0,%d)", channel, st.Channels)
	}
	tlo, thi := st.timeRange(t0, t1)
	return propolyne.Box{
		Lo: []int{channel, tlo, 0},
		Hi: []int{channel, thi, st.ValueBins - 1},
	}, nil
}

// CountSamples returns how many samples channel recorded in [t0, t1]
// seconds.
func (st *Store) CountSamples(channel int, t0, t1 float64) (float64, error) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	b, err := st.box(channel, t0, t1)
	if err != nil {
		return 0, err
	}
	return st.Engine.Count(b)
}

// AverageValue returns the mean sensor value of a channel over [t0, t1]
// seconds, decoded through the channel's quantiser.
func (st *Store) AverageValue(channel int, t0, t1 float64) (float64, bool, error) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	b, err := st.box(channel, t0, t1)
	if err != nil {
		return 0, false, err
	}
	avgBin, ok, err := st.Engine.Average(b, 2)
	if err != nil || !ok {
		return 0, ok, err
	}
	q := st.quant[channel]
	return q.Min + avgBin*q.Step(), true, nil
}

// VarianceValue returns the population variance of a channel's value over
// [t0, t1] seconds, in value units.
func (st *Store) VarianceValue(channel int, t0, t1 float64) (float64, bool, error) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	b, err := st.box(channel, t0, t1)
	if err != nil {
		return 0, false, err
	}
	vBin, ok, err := st.Engine.Variance(b, 2)
	if err != nil || !ok {
		return 0, ok, err
	}
	step := st.quant[channel].Step()
	return vBin * step * step, true, nil
}

// ApproximateCount returns a progressive estimate of CountSamples using at
// most budget transformed-domain coefficients, with its guaranteed error
// bound.
func (st *Store) ApproximateCount(channel int, t0, t1 float64, budget int) (est, bound float64, err error) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	b, err := st.box(channel, t0, t1)
	if err != nil {
		return 0, 0, err
	}
	return st.Engine.EstimateWithBudget(propolyne.Query{Lo: b.Lo, Hi: b.Hi}, budget)
}

// AppendFrame ingests one frame incrementally: each channel's reading
// becomes a tuple appended to the wavelet-domain engine without
// retransforming the cube (§3.1.1's low-cost append). tick is the absolute
// device tick of the frame. Frames beyond the store's time horizon clamp
// into the final bucket.
func (st *Store) AppendFrame(tick int, frame []float64) error {
	if len(frame) != st.Channels {
		return fmt.Errorf("core: frame width %d != %d channels", len(frame), st.Channels)
	}
	tb := tick / st.TicksPerBucket
	if tb >= st.TimeBuckets {
		tb = st.TimeBuckets - 1
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	for c, v := range frame {
		bin := st.quant[c].Quantize(v)
		if err := st.Engine.Append([]int{c, tb, bin}, 1); err != nil {
			return err
		}
	}
	return nil
}

// ValueTimeSeries returns the per-time-bucket average of a channel over
// [t0, t1] seconds: a GROUP BY over the time dimension with shared I/O.
// Buckets with no samples report ok=false via a NaN-free zero and the
// count slice lets callers distinguish them.
func (st *Store) ValueTimeSeries(channel int, t0, t1 float64, buckets int) (avgs, counts []float64, err error) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	b, err := st.box(channel, t0, t1)
	if err != nil {
		return nil, nil, err
	}
	gCount, err := propolyne.NewGroupBy(b, nil, 1, buckets)
	if err != nil {
		return nil, nil, err
	}
	polys := make([]vec.Poly, 3)
	polys[2] = vec.PolyX(1)
	gSum, err := propolyne.NewGroupBy(b, polys, 1, buckets)
	if err != nil {
		return nil, nil, err
	}
	cRes, err := st.Engine.GroupByExact(gCount)
	if err != nil {
		return nil, nil, err
	}
	sRes, err := st.Engine.GroupByExact(gSum)
	if err != nil {
		return nil, nil, err
	}
	q := st.quant[channel]
	avgs = make([]float64, buckets)
	for i := range avgs {
		if cRes.Values[i] > 0 {
			avgs[i] = q.Min + sRes.Values[i]/cRes.Values[i]*q.Step()
		}
	}
	return avgs, cRes.Values, nil
}

// ValueHistogram returns the distribution of a channel's quantised values
// over [t0, t1] seconds as `buckets` counts spanning the channel's value
// range — a GROUP BY over the value dimension evaluated with shared I/O.
// The second return value gives each bucket's value-space midpoint.
func (st *Store) ValueHistogram(channel int, t0, t1 float64, buckets int) ([]float64, []float64, error) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	b, err := st.box(channel, t0, t1)
	if err != nil {
		return nil, nil, err
	}
	g, err := propolyne.NewGroupBy(b, nil, 2, buckets)
	if err != nil {
		return nil, nil, err
	}
	res, err := st.Engine.GroupByExact(g)
	if err != nil {
		return nil, nil, err
	}
	q := st.quant[channel]
	mids := make([]float64, len(g.Buckets))
	for i, bk := range g.Buckets {
		midBin := float64(bk.Lo[2]+bk.Hi[2]) / 2
		mids[i] = q.Min + midBin*q.Step()
	}
	return res.Values, mids, nil
}

// BuildTemplates converts labelled reference executions into recogniser
// template signatures, aggregating the second-moment matrices of all
// executions per label.
func BuildTemplates(refs map[string][][][]float64) map[string]svdstream.Signature {
	out := make(map[string]svdstream.Signature, len(refs))
	for name, execs := range refs {
		var agg [][]float64
		for _, frames := range execs {
			m := svdstream.MomentMatrix(frames)
			if agg == nil {
				agg = m
				continue
			}
			for i := range m {
				for j := range m[i] {
					agg[i][j] += m[i][j]
				}
			}
		}
		if agg != nil {
			out[name] = svdstream.SignatureFromMoments(agg)
		}
	}
	return out
}

// NewRecognizer builds the online recognition pipeline: rest threshold
// calibrated from idle frames, defaults tuned for the 100 Hz glove rig.
func (s *System) NewRecognizer(templates map[string]svdstream.Signature, idle [][]float64, dims int) *svdstream.Recognizer {
	return svdstream.NewRecognizer(templates, svdstream.RecognizerConfig{
		Dims:          dims,
		RestThreshold: svdstream.CalibrateRest(idle),
		// Signs pause at keyframes; a generous rest requirement keeps one
		// motion from splitting at those plateaus.
		RestTicks: 25,
	})
}

// SpeedSeries converts a frame recording into per-tick speed of a channel
// triple (e.g. a tracker's x, y, z) — the feature stream of the ADHD
// analysis.
func SpeedSeries(frames [][]float64, xCh, yCh, zCh int, rate float64) []float64 {
	if len(frames) < 2 {
		return nil
	}
	out := make([]float64, len(frames)-1)
	for i := 1; i < len(frames); i++ {
		dx := frames[i][xCh] - frames[i-1][xCh]
		dy := frames[i][yCh] - frames[i-1][yCh]
		dz := frames[i][zCh] - frames[i-1][zCh]
		out[i-1] = math.Sqrt(dx*dx+dy*dy+dz*dz) * rate
	}
	return out
}

// CovarianceOfChannels computes the covariance of two channels' raw values
// over a tick range directly from frames — the cross-check target for the
// wavelet-domain covariance (§3.4.1 port).
func CovarianceOfChannels(frames [][]float64, a, b int) float64 {
	xa := make([]float64, len(frames))
	xb := make([]float64, len(frames))
	for i, fr := range frames {
		xa[i] = fr[a]
		xb[i] = fr[b]
	}
	return vec.Covariance(xa, xb)
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p *= 2
	}
	return p
}

func log2(n int) int {
	l := 0
	for n > 1 {
		n /= 2
		l++
	}
	return l
}
