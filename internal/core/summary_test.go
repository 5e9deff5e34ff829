package core

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"aims/internal/stream"
)

func fillStore(t *testing.T, seed int64, frames int) *LiveStore {
	t.Helper()
	ls, err := NewLiveStore([]float64{-2, 0}, []float64{2, 10}, LiveStoreConfig{
		Rate: 100, TimeBuckets: 64, ValueBins: 32, HorizonTicks: frames,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	batch := make([]stream.Frame, frames)
	for i := range batch {
		batch[i] = stream.Frame{
			T:      float64(i) / 100,
			Values: []float64{rng.Float64()*4 - 2, rng.Float64() * 10},
		}
	}
	if n, err := ls.AppendFrames(batch); err != nil || n != frames {
		t.Fatalf("append %d/%d: %v", n, frames, err)
	}
	return ls
}

// TestSummarizeMatchesMoments checks the Summary path agrees with
// CountSamples/AverageValue/VarianceValue (up to decode-formula rounding).
func TestSummarizeMatchesMoments(t *testing.T) {
	ls := fillStore(t, 7, 4000)
	for _, span := range [][2]float64{{0, 40}, {3, 9.5}, {12.25, 12.25}, {0, 1e9}} {
		for ch := 0; ch < 2; ch++ {
			s, frames, err := ls.Summarize(ch, span[0], span[1])
			if err != nil {
				t.Fatal(err)
			}
			if frames != 4000 {
				t.Fatalf("watermark %d", frames)
			}
			wantN, err := ls.CountSamples(ch, span[0], span[1])
			if err != nil {
				t.Fatal(err)
			}
			if s.Count() != wantN {
				t.Fatalf("ch %d [%v,%v]: count %v != %v", ch, span[0], span[1], s.Count(), wantN)
			}
			wantAvg, okAvg, _ := ls.AverageValue(ch, span[0], span[1])
			avg, ok := s.Average()
			if ok != okAvg || (ok && math.Abs(avg-wantAvg) > 1e-9*math.Max(1, math.Abs(wantAvg))) {
				t.Fatalf("ch %d [%v,%v]: avg %v/%v != %v/%v", ch, span[0], span[1], avg, ok, wantAvg, okAvg)
			}
			wantVar, okVar, _ := ls.VarianceValue(ch, span[0], span[1])
			v, ok := s.Variance()
			if ok != okVar || (ok && math.Abs(v-wantVar) > 1e-6*math.Max(1, math.Abs(wantVar))) {
				t.Fatalf("ch %d [%v,%v]: var %v/%v != %v/%v", ch, span[0], span[1], v, ok, wantVar, okVar)
			}
		}
	}
	if _, _, err := ls.Summarize(5, 0, 1); err == nil {
		t.Fatal("bad channel accepted")
	}
}

// TestSummaryMergeEqualsWholeRange splits a range in two, merges the two
// summaries, and checks the merge matches summarising the whole range —
// the fleet layer's exact-merge invariant in miniature.
func TestSummaryMergeEqualsWholeRange(t *testing.T) {
	ls := fillStore(t, 11, 4000)
	// Split on a bucket boundary so the two halves partition the samples
	// (timeRange works in whole buckets).
	tpb := float64(ls.TicksPerBucket()) / 100 // seconds per bucket
	mid := 16 * tpb
	whole, _, err := ls.Summarize(0, 0, 40)
	if err != nil {
		t.Fatal(err)
	}
	a, _, err := ls.Summarize(0, 0, mid-tpb/2)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := ls.Summarize(0, mid, 40)
	if err != nil {
		t.Fatal(err)
	}
	a.Merge(b)
	if a.N != whole.N {
		t.Fatalf("merged count %v != %v", a.N, whole.N)
	}
	if math.Abs(a.Sum-whole.Sum) > 1e-9*math.Max(1, math.Abs(whole.Sum)) {
		t.Fatalf("merged sum %v != %v", a.Sum, whole.Sum)
	}
}

// TestSummarizeConcurrentWithAppends drives one appender and several
// summarisers over the same buckets in parallel (run under -race): each
// answer's N must equal the watermark returned with it, so a scan never
// sees half a frame or a row cached before the frames it reports, and N
// can only be one of the batch-boundary counts. Bucket 0 passes 255
// frames midway, so the cube widens to 16 bits under the readers.
func TestSummarizeConcurrentWithAppends(t *testing.T) {
	ls, err := NewLiveStore([]float64{0}, []float64{1}, LiveStoreConfig{
		Rate: 100, TimeBuckets: 32, ValueBins: 16, HorizonTicks: 100000,
	})
	if err != nil {
		t.Fatal(err)
	}
	const batches, perBatch, readers = 200, 50, 4
	var wg sync.WaitGroup
	wg.Add(1 + readers)
	go func() {
		defer wg.Done()
		tick := 0
		for i := 0; i < batches; i++ {
			batch := make([]stream.Frame, perBatch)
			for j := range batch {
				batch[j] = stream.Frame{T: float64(tick) / 100, Values: []float64{float64(j%7) / 7}}
				tick++
			}
			ls.AppendFrames(batch)
		}
	}()
	for r := 0; r < readers; r++ {
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s, frames, err := ls.Summarize(0, 0, 1e6)
				if err != nil {
					t.Error(err)
					return
				}
				if s.N != float64(frames) {
					t.Errorf("summary N %v != watermark %d: torn or stale read", s.N, frames)
					return
				}
				if uint64(s.N)%perBatch != 0 {
					t.Errorf("observed mid-batch count %v", s.N)
					return
				}
				if cube := ls.Footprint().Cube; cube != 512 && cube != 1024 {
					t.Errorf("a %d-cell cube holds %d B, want 8- or 16-bit cells", 512, cube)
					return
				}
			}
		}()
	}
	wg.Wait()
}
