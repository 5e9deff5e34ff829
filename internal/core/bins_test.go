package core

import (
	"math"
	"slices"
	"testing"

	"aims/internal/sensors"
	"aims/internal/stream"
)

// TestBinMatchesQuantize: the bin table an append quantises through gives
// every value the bin compress.Quantize gives it, for every channel of a
// glove store at every bin width from 1 to 16 bits — on the benchmark's
// seeded glove recording with its ranges padded 5 %, at each bin edge
// exactly and one and two ulps either side of it, beyond both ends of the
// range, and on ±Inf and NaN.
func TestBinMatchesQuantize(t *testing.T) {
	dev := sensors.NewDevice(sensors.GloveSpecs(), sensors.DefaultClock, 1.0, 1)
	frames := make([][]float64, 4096)
	for i := range frames {
		frames[i] = dev.Frame(i)
	}
	channels := len(frames[0])
	mins, maxs := make([]float64, channels), make([]float64, channels)
	for c := range mins {
		lo, hi := frames[0][c], frames[0][c]
		for _, fr := range frames {
			lo, hi = math.Min(lo, fr[c]), math.Max(hi, fr[c])
		}
		span := hi - lo
		mins[c], maxs[c] = lo-0.05*span, hi+0.05*span
	}
	for bits := 1; bits <= 16; bits++ {
		ls, err := NewLiveStore(mins, maxs, LiveStoreConfig{TimeBuckets: 1, ValueBins: 1 << bits})
		if err != nil {
			t.Fatal(err)
		}
		for c, q := range ls.quant {
			check := func(v float64) {
				if got, want := ls.binner.rows[c].bin(v), q.Quantize(v); got != want {
					t.Fatalf("%d bits, channel %d: bin(%v) = %d, Quantize gives %d", bits, c, v, got, want)
				}
			}
			for _, fr := range frames {
				check(fr[c])
			}
			top := float64(q.Levels() - 1)
			for l := 0.0; l < top; l++ {
				edge := q.Min + (l+0.5)/top*(q.Max-q.Min)
				lo, hi := edge, edge
				check(edge)
				for i := 0; i < 2; i++ {
					lo, hi = math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1))
					check(lo)
					check(hi)
				}
			}
			for _, v := range []float64{q.Min, q.Max, q.Min - 1, q.Max + 1, -1e300, 1e300, math.Inf(1), math.Inf(-1), math.NaN()} {
				check(v)
			}
		}
	}
}

// TestRestoredStoreBinsThroughItsQuantizers: a live store read back from
// its snapshot bins new frames through the quantisers the store was built
// with — here QuantizerFor's, spanning each channel's observed range (a
// constant channel's widened to one unit), which no registration range
// rebuilds — so each value of a frame appended after the read lands in
// the cell Quantize names.
func TestRestoredStoreBinsThroughItsQuantizers(t *testing.T) {
	recording := make([][]float64, 500)
	for i := range recording {
		x := float64(i)
		recording[i] = []float64{math.Sin(x / 30), 40 + 3*math.Cos(x/7), 2.5, x / 50}
	}
	sys := New(Config{TimeBuckets: 16, ValueBins: 32})
	st, err := sys.BuildStore(recording)
	if err != nil {
		t.Fatal(err)
	}
	cfg := LiveStoreConfig{Rate: st.Rate, TimeBuckets: st.TimeBuckets, ValueBins: st.ValueBins, HorizonTicks: st.TicksPerBucket * st.TimeBuckets}
	built, err := newLiveStore(slices.Clone(st.quant), cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := ReadSnapshot(built.AppendSnapshot(nil), LiveStoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	frame := []float64{0.3, 41.7, 2.5, 12}
	before := ls.counts()
	if _, err := ls.AppendFrames([]stream.Frame{{T: 0, Values: frame}}); err != nil {
		t.Fatal(err)
	}
	after := ls.counts()
	row := st.TimeBuckets * st.ValueBins // one channel's cells; the frame is in bucket 0
	for c, v := range frame {
		want := c*row + st.quant[c].Quantize(v)
		for i := c * row; i < (c+1)*row; i++ {
			if d := after[i] - before[i]; (i == want) != (d == 1) || d > 1 {
				t.Fatalf("channel %d value %v: cell %d gained %d, want the one cell %d (bin %d)",
					c, v, i, d, want, st.quant[c].Quantize(v))
			}
		}
	}
}
