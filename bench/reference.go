package main

import (
	"fmt"
	"math"

	"aims/internal/stream"
	"aims/internal/wire"
)

// The reference model is what the generator knows it sent: per session, a
// plain slice of recorded frames replayed cyclically and the count sent so
// far. Frame i of a session is rec.frames[(offset+i) % len] stamped
// T = i/rate. Every answer the server gives is checked against aggregates
// computed from that slice alone.

// Store geometry the server runs at its default flags (-buckets, -bins).
const (
	timeBuckets = 256
	valueBins   = 64
)

// recording is one device recording plus the per-channel prefix sums that
// let the reference answer a range aggregate over millions of replayed
// frames without rescanning them.
type recording struct {
	frames     [][]float64
	mins, maxs []float64
	sum, sumSq [][]float64 // [channel][i] = Σ over frames[0:i]
}

func newRecording(frames [][]float64) *recording {
	width := len(frames[0])
	r := &recording{
		frames: frames,
		mins:   make([]float64, width),
		maxs:   make([]float64, width),
		sum:    make([][]float64, width),
		sumSq:  make([][]float64, width),
	}
	for c := 0; c < width; c++ {
		lo, hi := frames[0][c], frames[0][c]
		r.sum[c] = make([]float64, len(frames)+1)
		r.sumSq[c] = make([]float64, len(frames)+1)
		for i, fr := range frames {
			v := fr[c]
			lo, hi = math.Min(lo, v), math.Max(hi, v)
			r.sum[c][i+1] = r.sum[c][i] + v
			r.sumSq[c][i+1] = r.sumSq[c][i] + v*v
		}
		// A margin keeps every replayed value inside the registered range,
		// so the server never clamps and the reference need not model it.
		span := hi - lo
		r.mins[c], r.maxs[c] = lo-0.05*span, hi+0.05*span
	}
	return r
}

// cyclic returns Σ table over the x first frames of the endless replay.
func cyclic(table []float64, x int) float64 {
	n := len(table) - 1
	return float64(x/n)*table[n] + table[x%n]
}

// sessionModel is the reference for one session.
type sessionModel struct {
	name, class string
	rate        float64
	horizon     int // HorizonTicks registered in the Hello
	rec         *recording
	offset      int // where in rec this session's replay starts
	sent        int // frames sent and acknowledged so far
	id          uint64
}

func (m *sessionModel) hello() wire.Hello {
	return wire.Hello{
		Rate: m.rate, HorizonTicks: uint32(m.horizon),
		Name: m.name, Class: m.class,
		Mins: m.rec.mins, Maxs: m.rec.maxs,
	}
}

func (m *sessionModel) width() int { return len(m.rec.mins) }

// fill writes the n frames following position from into dst (reused).
func (m *sessionModel) fill(dst []stream.Frame, from, n int) []stream.Frame {
	dst = dst[:0]
	for i := from; i < from+n; i++ {
		dst = append(dst, stream.Frame{
			T:      float64(i) / m.rate,
			Values: m.rec.frames[(m.offset+i)%len(m.rec.frames)],
		})
	}
	return dst
}

func (m *sessionModel) ticksPerBucket() int {
	tpb := (m.horizon + timeBuckets - 1) / timeBuckets
	if tpb < 1 {
		tpb = 1
	}
	return tpb
}

// tickRange maps a [t0,t1] query onto the half-open tick interval it
// covers among the first n frames: a range aggregate spans whole time
// buckets, the last bucket absorbing everything past the horizon. (The
// workloads never start a range past the horizon: the server does not
// clamp that end, see README.)
func (m *sessionModel) tickRange(t0, t1 float64, n int) (from, to int) {
	tpb := m.ticksPerBucket()
	lo := int(t0 * m.rate / float64(tpb))
	hi := int(t1 * m.rate / float64(tpb))
	if lo < 0 {
		lo = 0
	}
	if lo >= timeBuckets {
		lo = timeBuckets - 1
	}
	if hi >= timeBuckets {
		hi = timeBuckets - 1
	}
	if hi < lo {
		hi = lo
	}
	from, to = lo*tpb, (hi+1)*tpb
	if hi == timeBuckets-1 || to > n {
		to = n
	}
	if from > to {
		from = to
	}
	return from, to
}

// moments returns N, Σv and Σv² of one channel over [t0,t1] among the
// first n frames sent.
func (m *sessionModel) moments(ch int, t0, t1 float64, n int) (cnt, sum, sumSq float64) {
	from, to := m.tickRange(t0, t1, n)
	cnt = float64(to - from)
	sum = cyclic(m.rec.sum[ch], m.offset+to) - cyclic(m.rec.sum[ch], m.offset+from)
	sumSq = cyclic(m.rec.sumSq[ch], m.offset+to) - cyclic(m.rec.sumSq[ch], m.offset+from)
	return cnt, sum, sumSq
}

// step is the channel's quantiser step at the server's default value bins.
func (m *sessionModel) step(ch int) float64 {
	return (m.rec.maxs[ch] - m.rec.mins[ch]) / float64(valueBins-1)
}

// countSlack absorbs floating-point noise in transformed-domain sums.
func countSlack(exact float64) float64 { return 1e-6 * (1 + math.Abs(exact)) }

// checkMoments compares an exact-kind answer with reference moments.
// COUNT must be equal. AVERAGE may differ by one quantiser step, and
// VARIANCE by that step carried through the second moment: quantising x
// to x+e with |e| ≤ step changes the variance by at most 2σ·step + step².
func checkMoments(kind wire.QueryKind, value float64, ok bool, cnt, sum, sumSq, step float64) error {
	switch kind {
	case wire.QueryCount:
		if value != cnt {
			return fmt.Errorf("COUNT %v, reference %v", value, cnt)
		}
		return nil
	case wire.QueryAverage, wire.QueryVariance:
		if cnt == 0 {
			if ok {
				return fmt.Errorf("kind %d answered %v over an empty range", kind, value)
			}
			return nil
		}
		if !ok {
			return fmt.Errorf("kind %d reported empty over %v samples", kind, cnt)
		}
		mean := sum / cnt
		if kind == wire.QueryAverage {
			if math.Abs(value-mean) > step {
				return fmt.Errorf("AVERAGE %v, reference %v, step %v", value, mean, step)
			}
			return nil
		}
		variance := math.Max(sumSq/cnt-mean*mean, 0)
		tol := step*(2*math.Sqrt(variance)+step) + 1e-9
		if math.Abs(value-variance) > tol {
			return fmt.Errorf("VARIANCE %v, reference %v, tolerance %v", value, variance, tol)
		}
		return nil
	}
	return fmt.Errorf("kind %d is not an exact kind", kind)
}

// checkEstimate holds an approximate or progressive answer to its own
// guarantee: the exact COUNT lies within the reported Bound.
func checkEstimate(value, bound, exact float64) error {
	if math.IsNaN(value) || math.IsNaN(bound) || bound < 0 {
		return fmt.Errorf("estimate %v with bound %v", value, bound)
	}
	if math.Abs(value-exact) > bound+countSlack(exact) {
		return fmt.Errorf("estimate %v misses exact COUNT %v by more than its bound %v", value, exact, bound)
	}
	return nil
}

// checkResult verifies one single-session answer given n frames stored.
func (m *sessionModel) checkResult(q wire.Query, steps []wire.Result, n int) error {
	if len(steps) == 0 {
		return fmt.Errorf("no result")
	}
	cnt, sum, sumSq := m.moments(int(q.Channel), q.T0, q.T1, n)
	switch q.Kind {
	case wire.QueryCount, wire.QueryAverage, wire.QueryVariance:
		r := steps[len(steps)-1]
		return checkMoments(q.Kind, r.Value, r.OK, cnt, sum, sumSq, m.step(int(q.Channel)))
	case wire.QueryApproxCount:
		r := steps[len(steps)-1]
		return checkEstimate(r.Value, r.Bound, cnt)
	case wire.QueryProgressiveCount:
		for i, r := range steps {
			if err := checkEstimate(r.Value, r.Bound, cnt); err != nil {
				return fmt.Errorf("step %d/%d: %v", i+1, len(steps), err)
			}
		}
		if last := steps[len(steps)-1]; math.Abs(last.Value-cnt) > countSlack(cnt) {
			return fmt.Errorf("final progressive step %v, exact COUNT %v", last.Value, cnt)
		}
		return nil
	}
	return fmt.Errorf("unknown kind %d", q.Kind)
}
