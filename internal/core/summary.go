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
// This is the fleet layer's read-only evaluation path: the row span is
// copied out under a brief read lock — O(buckets × bins) memcpy, no
// arithmetic — and the moment scan runs on the copy, outside any lock. A
// fleet fan-out over thousands of sessions therefore never holds a store
// lock for the duration of the math, so ingest appends interleave with
// fleet scans instead of serialising behind them; and because the copy is
// atomic under the lock, the summary covers exactly the first `frames`
// frames (the watermark reported back in the fleet result).
func (ls *LiveStore) Summarize(channel int, t0, t1 float64) (Summary, uint64, error) {
	if err := ls.checkChannel(channel); err != nil {
		return Summary{}, 0, err
	}
	from, to := ls.rowSpan(channel, t0, t1)
	span := make([]uint32, to-from)
	ls.mu.RLock()
	frames := uint64(ls.frames)
	copy(span, ls.cube[from:to])
	ls.mu.RUnlock()

	n, sum, sumSq := binMoments(span, ls.cfg.ValueBins)
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
