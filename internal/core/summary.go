package core

// Summary is the mergeable partial aggregate of one channel over one time
// range: sample count and the first two moments of the *decoded* sensor
// value (Σv, Σv² in value units, not bin units). Because it lives in value
// units it merges across sessions whose quantisers differ — two gloves
// registered with different per-channel ranges still combine exactly —
// which is what the fleet layer needs: COUNT is ΣN, AVERAGE the weighted
// merge Sum/N, VARIANCE derives from the merged moments.
type Summary struct {
	N     float64 // samples in range
	Sum   float64 // Σ decoded value
	SumSq float64 // Σ decoded value²
}

// Merge folds another summary in. Merging is commutative and associative
// up to float rounding; callers that need bit-reproducible fleet answers
// merge in a deterministic (ascending session ID) order.
func (s *Summary) Merge(o Summary) {
	s.N += o.N
	s.Sum += o.Sum
	s.SumSq += o.SumSq
}

// Count returns the sample count.
func (s Summary) Count() float64 { return s.N }

// Average returns the mean decoded value; ok=false on an empty summary.
func (s Summary) Average() (float64, bool) {
	if s.N == 0 {
		return 0, false
	}
	return s.Sum / s.N, true
}

// Variance returns the population variance of the decoded value; ok=false
// on an empty summary.
func (s Summary) Variance() (float64, bool) {
	if s.N == 0 {
		return 0, false
	}
	mean := s.Sum / s.N
	return s.SumSq/s.N - mean*mean, true
}

// Summarize computes the channel's Summary over [t0, t1] seconds together
// with the store's frame high-water mark at scan time.
//
// This is the fleet layer's read-only evaluation path, and it shares the
// row-moment cache of CountSamples/AverageValue/VarianceValue: under the
// store's read lock and then the row-cache mutex (lock order mu → rowMu)
// it sums each row's cached integer Σbin, Σbin² and its bucket's fill and
// reads the frame count, so the summary covers exactly the first `frames`
// frames (the watermark reported back in the fleet result) and never half
// a frame.
//
// A bucket's fill — the frames stored into it, counted once per frame by
// every append and read back by ReadSnapshot — is every channel's Σ1
// there, since each frame adds one count to every channel's row of its
// bucket. A bucket's rows are current while the fill they were cached at
// equals its fill, and a fill only grows. Warm rows —
// an idle session, a finished bucket — cost one add each, so a scan is
// O(buckets) and allocates nothing. A bucket that took frames since its
// rows were cached, typically a live session's head bucket, has every
// channel's row rescanned from its ValueBins cells first.
func (ls *LiveStore) Summarize(channel int, t0, t1 float64) (Summary, uint64, error) {
	n, sum, sumSq, frames, err := ls.moments(channel, t0, t1)
	if err != nil {
		return Summary{}, 0, err
	}
	q := ls.quant[channel]
	min, step := q.Min, q.Step()
	// Decode bin-unit moments into value units:
	//   Σv  = N·min + step·Σb
	//   Σv² = N·min² + 2·min·step·Σb + step²·Σb²
	return Summary{
		N:     n,
		Sum:   n*min + step*sum,
		SumSq: n*min*min + 2*min*step*sum + step*step*sumSq,
	}, frames, nil
}
