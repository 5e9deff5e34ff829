package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"aims/internal/stream"
)

func liveCfg() LiveStoreConfig {
	return LiveStoreConfig{Rate: 100, TimeBuckets: 64, ValueBins: 32, HorizonTicks: 1000}
}

func testFrames(n, channels int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		row := make([]float64, channels)
		for c := range row {
			row[c] = math.Sin(float64(i)/17+float64(c)) * 10
		}
		out[i] = row
	}
	return out
}

// appendAt appends one frame at device tick tick through AppendFrames,
// stamped tick/Rate seconds.
func appendAt(ls *LiveStore, tick int, frame []float64) error {
	_, err := ls.AppendFrames([]stream.Frame{{T: float64(tick) / ls.cfg.Rate, Values: frame}})
	return err
}

func newLive(t *testing.T, channels int) *LiveStore {
	t.Helper()
	mins := make([]float64, channels)
	maxs := make([]float64, channels)
	for c := range mins {
		mins[c], maxs[c] = -10, 10
	}
	ls, err := NewLiveStore(mins, maxs, liveCfg())
	if err != nil {
		t.Fatal(err)
	}
	return ls
}

func TestLiveStoreValidation(t *testing.T) {
	if _, err := NewLiveStore(nil, nil, liveCfg()); err == nil {
		t.Fatal("empty ranges accepted")
	}
	if _, err := NewLiveStore([]float64{0}, []float64{1, 2}, liveCfg()); err == nil {
		t.Fatal("mismatched ranges accepted")
	}
	cfg := liveCfg()
	cfg.TimeBuckets = 100 // not a power of two
	if _, err := NewLiveStore([]float64{0}, []float64{1}, cfg); err == nil {
		t.Fatal("non-power-of-two buckets accepted")
	}
	ls := newLive(t, 2)
	if err := appendAt(ls, 0, []float64{1}); err == nil {
		t.Fatal("wrong width accepted")
	}
	if err := appendAt(ls, -1, []float64{1, 2}); err == nil {
		t.Fatal("negative tick accepted")
	}
	if _, err := ls.CountSamples(5, 0, 1); err == nil {
		t.Fatal("bad channel accepted")
	}
}

func TestLiveStoreExactAggregates(t *testing.T) {
	const channels = 3
	ls := newLive(t, channels)
	frames := testFrames(800, channels)
	for tick, fr := range frames {
		if err := appendAt(ls, tick, fr); err != nil {
			t.Fatal(err)
		}
	}
	if ls.Frames() != 800 {
		t.Fatalf("Frames = %d", ls.Frames())
	}
	// Full-range count is exact regardless of quantisation.
	for c := 0; c < channels; c++ {
		n, err := ls.CountSamples(c, 0, 1e9)
		if err != nil {
			t.Fatal(err)
		}
		if n != 800 {
			t.Fatalf("channel %d count = %v, want 800", c, n)
		}
	}
	// A time sub-range count matches direct bucket arithmetic: ticks
	// [0,399] → seconds [0, 3.99].
	n, err := ls.CountSamples(0, 0, 3.99)
	if err != nil {
		t.Fatal(err)
	}
	tpb := ls.TicksPerBucket()
	wantTicks := ((int(3.99*100) / tpb) + 1) * tpb // whole buckets
	if wantTicks > 800 {
		wantTicks = 800
	}
	if int(n) != wantTicks {
		t.Fatalf("sub-range count = %v, want %d", n, wantTicks)
	}
	// Average within one quantisation step of the raw mean.
	var raw float64
	for _, fr := range frames {
		raw += fr[1]
	}
	raw /= float64(len(frames))
	avg, ok, err := ls.AverageValue(1, 0, 1e9)
	if err != nil || !ok {
		t.Fatalf("average: ok=%v err=%v", ok, err)
	}
	step := 20.0 / 31 // range/(bins-1)
	if math.Abs(avg-raw) > step {
		t.Fatalf("avg %v vs raw %v (step %v)", avg, raw, step)
	}
	// Variance positive and near raw variance.
	va, ok, err := ls.VarianceValue(1, 0, 1e9)
	if err != nil || !ok {
		t.Fatalf("variance: ok=%v err=%v", ok, err)
	}
	var rawVar float64
	for _, fr := range frames {
		rawVar += (fr[1] - raw) * (fr[1] - raw)
	}
	rawVar /= float64(len(frames))
	if va <= 0 || math.Abs(va-rawVar) > rawVar*0.2+step*step {
		t.Fatalf("variance %v vs raw %v", va, rawVar)
	}
	// Empty store/range reports ok=false.
	empty := newLive(t, 1)
	if _, ok, _ := empty.AverageValue(0, 0, 1); ok {
		t.Fatal("empty average reported ok")
	}
}

func TestLiveStoreSealMatchesScans(t *testing.T) {
	const channels = 2
	ls := newLive(t, channels)
	for tick, fr := range testFrames(500, channels) {
		if err := appendAt(ls, tick, fr); err != nil {
			t.Fatal(err)
		}
	}
	st, err := ls.Seal()
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < channels; c++ {
		for _, win := range [][2]float64{{0, 1e9}, {0, 2}, {1, 4}} {
			want, _ := ls.CountSamples(c, win[0], win[1])
			got, err := st.CountSamples(c, win[0], win[1])
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-want) > 1e-6*math.Max(1, want) {
				t.Fatalf("sealed count ch%d %v: %v != %v", c, win, got, want)
			}
		}
		wantAvg, _, _ := ls.AverageValue(c, 0, 1e9)
		gotAvg, ok, err := st.AverageValue(c, 0, 1e9)
		if err != nil || !ok {
			t.Fatalf("sealed avg: ok=%v err=%v", ok, err)
		}
		if math.Abs(gotAvg-wantAvg) > 1e-6 {
			t.Fatalf("sealed avg ch%d: %v != %v", c, gotAvg, wantAvg)
		}
	}
	// Seal is cached until the next append.
	st2, _ := ls.Seal()
	if st2 != st {
		t.Fatal("unchanged store resealed")
	}
	// After an append the seal is brought up to date (incrementally, so
	// the same engine object may be returned — what matters is that the
	// answer reflects the new frame).
	before, _ := st.CountSamples(0, 0, 1e9)
	if err := appendAt(ls, 500, []float64{1, 1}); err != nil {
		t.Fatal(err)
	}
	st3, err := ls.Seal()
	if err != nil {
		t.Fatal(err)
	}
	after, _ := st3.CountSamples(0, 0, 1e9)
	if after != before+1 {
		t.Fatalf("resealed count %v, want %v", after, before+1)
	}
}

func TestLiveStoreApproximateAndProgressive(t *testing.T) {
	ls := newLive(t, 2)
	for tick, fr := range testFrames(600, 2) {
		if err := appendAt(ls, tick, fr); err != nil {
			t.Fatal(err)
		}
	}
	exact, _ := ls.CountSamples(0, 0, 3)
	est, bound, err := ls.ApproximateCount(0, 0, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est-exact) > bound+1e-6 {
		t.Fatalf("approx %v outside bound %v of exact %v", est, bound, exact)
	}
	steps, _, err := ls.ProgressiveCount(0, 0, 3, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) == 0 {
		t.Fatal("no progressive steps")
	}
	last := steps[len(steps)-1]
	if math.Abs(last.Estimate-exact) > 1e-6*math.Max(1, exact) {
		t.Fatalf("final progressive step %v != exact %v", last.Estimate, exact)
	}
	for _, st := range steps {
		if math.Abs(st.Estimate-exact) > st.ErrorBound+1e-6 {
			t.Fatalf("step %d: estimate %v outside bound %v", st.Coefficients, st.Estimate, st.ErrorBound)
		}
	}
}

// TestTracedQueryAllocs pins the allocations of a warm traced query: the
// plan trace rides inside propolyne.Query, and a stack QueryTrace must
// stay on the stack, so tracing costs no allocation the untraced call
// does not already make. At this relational geometry the query walks the
// count cube: it allocates the query's box and its plan-cache key, and a
// progressive query its steps — no seal, no float cube.
func TestTracedQueryAllocs(t *testing.T) {
	ls := newLive(t, 2)
	for tick, fr := range testFrames(600, 2) {
		if err := appendAt(ls, tick, fr); err != nil {
			t.Fatal(err)
		}
	}
	approx := func() {
		var qt QueryTrace
		if _, _, _, err := ls.ApproximateCountTraced(0, 0, 3, 10, &qt); err != nil {
			t.Fatal(err)
		}
	}
	prog := func() {
		var qt QueryTrace
		if _, _, err := ls.ProgressiveCount(0, 0, 3, 8, &qt); err != nil {
			t.Fatal(err)
		}
	}
	approx()
	prog()
	if n := testing.AllocsPerRun(200, approx); n != 2 {
		t.Errorf("traced ApproximateCountTraced: %v allocs, want 2", n)
	}
	if n := testing.AllocsPerRun(200, prog); n != 3 {
		t.Errorf("traced ProgressiveCount: %v allocs, want 3", n)
	}
	untraced := func() {
		ls.ApproximateCount(0, 0, 3, 10)
		ls.ProgressiveCount(0, 0, 3, 8, nil)
	}
	if n := testing.AllocsPerRun(200, untraced); n != 2+3 {
		t.Errorf("untraced approximate + progressive: %v allocs, want 5", n)
	}
}

func TestLiveStoreAppendFrames(t *testing.T) {
	ls := newLive(t, 2)
	frames := []stream.Frame{
		{T: 0, Values: []float64{1, 2}},
		{T: 0.01, Values: []float64{3, 4}},
		{T: 0.02, Values: []float64{5, 6}},
	}
	stored, err := ls.AppendFrames(frames)
	if err != nil {
		t.Fatal(err)
	}
	if stored != 3 {
		t.Fatalf("stored = %d", stored)
	}
	if n, _ := ls.CountSamples(0, 0, 1e9); n != 3 {
		t.Fatalf("count = %v", n)
	}
	// Invalid frames are skipped, not fatal: the rest of the batch lands.
	stored, err = ls.AppendFrames([]stream.Frame{
		{T: -5, Values: []float64{1, 2}},    // negative tick
		{T: 0.03, Values: []float64{7}},     // wrong width
		{T: 0.04, Values: []float64{9, 10}}, // fine
	})
	if err == nil {
		t.Fatal("bad frames reported no error")
	}
	if stored != 1 {
		t.Fatalf("stored = %d, want 1", stored)
	}
	if n, _ := ls.CountSamples(0, 0, 1e9); n != 4 {
		t.Fatalf("count = %v, want 4", n)
	}
}

// TestRangePastHorizonClampsIntoLastBucket: ingest folds frames past the
// horizon into the final time bucket, so a range that starts out there
// must read that bucket — on every channel, the last one included, where
// an unclamped lower bound used to index past the cube — and the live
// store and its sealed Store must agree.
func TestRangePastHorizonClampsIntoLastBucket(t *testing.T) {
	const channels = 3
	ls := newLive(t, channels)
	tpb := ls.TicksPerBucket()
	lastStart := (liveCfg().TimeBuckets - 1) * tpb // first tick of the final bucket
	total := lastStart + 150                       // 150 ticks land past the bucketed horizon
	for i, row := range testFrames(total, channels) {
		if err := appendAt(ls, i, row); err != nil {
			t.Fatal(err)
		}
	}
	st, err := ls.Seal()
	if err != nil {
		t.Fatal(err)
	}
	horizon := float64(liveCfg().TimeBuckets*tpb) / liveCfg().Rate
	inLast := float64(total - lastStart)
	for _, tc := range []struct {
		name   string
		t0, t1 float64
		want   float64
	}{
		{"over-long t1", float64(lastStart) / liveCfg().Rate, 1e9, inLast},
		{"t0 at horizon", horizon, horizon + 1, inLast},
		{"t0 past horizon", horizon + 5, horizon + 6, inLast},
		{"t0 far past horizon", 1e12, 2e12, inLast},
		{"t0 beyond int range", 1e300, 1e300, inLast},
		{"whole session", 0, 1e300, float64(total)},
	} {
		for ch := 0; ch < channels; ch++ {
			got, err := ls.CountSamples(ch, tc.t0, tc.t1)
			if err != nil || got != tc.want {
				t.Errorf("%s: live count(ch %d) = %v, %v; want %v", tc.name, ch, got, err, tc.want)
			}
			sealed, err := st.CountSamples(ch, tc.t0, tc.t1)
			if err != nil || math.Abs(sealed-tc.want) > 1e-6*tc.want {
				t.Errorf("%s: sealed count(ch %d) = %v, %v; want %v", tc.name, ch, sealed, err, tc.want)
			}
			if sum, _, err := ls.Summarize(ch, tc.t0, tc.t1); err != nil || sum.N != tc.want {
				t.Errorf("%s: summarize(ch %d) N = %v, %v; want %v", tc.name, ch, sum.N, err, tc.want)
			}
			if vol, err := ls.BoxVolume(ch, tc.t0, tc.t1); err != nil || vol <= 0 {
				t.Errorf("%s: box volume(ch %d) = %d, %v", tc.name, ch, vol, err)
			}
		}
	}
}

// TestLiveStoreConcurrentIngestAndQuery is the server path under -race:
// one appender, many concurrent exact/approximate readers, and the
// frame-atomicity invariant (every channel of a frame becomes visible
// together, so per-channel counts always agree).
func TestLiveStoreConcurrentIngestAndQuery(t *testing.T) {
	const channels = 4
	const total = 3000
	ls := newLive(t, channels)
	frames := testFrames(total, channels)

	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for tick, fr := range frames {
			if err := appendAt(ls, tick, fr); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				counts := make([]float64, channels)
				for c := 1; c < channels; c++ {
					n, err := ls.CountSamples(c, 0, 1e9)
					if err != nil {
						t.Error(err)
						return
					}
					counts[c] = n
				}
				// Channel 0 is counted first by AppendFrame, so at any
				// instant no channel is ahead of it, and counts only grow:
				// a channel-0 count read AFTER the others bounds them all.
				// (Reading it first would race the appender: a frame landing
				// between the reads legitimately puts later channels ahead
				// of a stale channel-0 value.)
				c0, err := ls.CountSamples(0, 0, 1e9)
				if err != nil {
					t.Error(err)
					return
				}
				for c := 1; c < channels; c++ {
					if counts[c] > c0 {
						t.Errorf("channel %d count %v ahead of channel 0 (%v)", c, counts[c], c0)
						return
					}
				}
				if _, _, err := ls.ApproximateCount(1, 0, 5, 8); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n, _ := ls.CountSamples(channels-1, 0, 1e9); n != total {
		t.Fatalf("final count %v != %d", n, total)
	}
}

// mkLive builds a live store with an explicit incremental-seal threshold
// (-1 disables incremental sealing: every Seal is a from-scratch rebuild,
// the reference the equivalence tests compare against).
func mkLive(t *testing.T, channels, threshold int) *LiveStore {
	t.Helper()
	mins := make([]float64, channels)
	maxs := make([]float64, channels)
	for c := range mins {
		mins[c], maxs[c] = -10, 10
	}
	cfg := liveCfg()
	cfg.SealDeltaThreshold = threshold
	ls, err := NewLiveStore(mins, maxs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ls
}

// sealsAgree asserts COUNT/AVERAGE/VARIANCE parity of two sealed stores
// over the full range plus random windows of every channel.
func sealsAgree(t *testing.T, rng *rand.Rand, a, b *Store, channels int) {
	t.Helper()
	windows := [][2]float64{{0, 1e9}}
	for i := 0; i < 3; i++ {
		t0 := rng.Float64() * 8
		windows = append(windows, [2]float64{t0, t0 + rng.Float64()*4})
	}
	const tol = 1e-6
	for c := 0; c < channels; c++ {
		for _, w := range windows {
			ca, err := a.CountSamples(c, w[0], w[1])
			if err != nil {
				t.Fatal(err)
			}
			cb, err := b.CountSamples(c, w[0], w[1])
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(ca-cb) > tol*math.Max(1, math.Abs(cb)) {
				t.Fatalf("ch%d %v: incremental count %v != rebuild %v", c, w, ca, cb)
			}
			aa, okA, _ := a.AverageValue(c, w[0], w[1])
			ab, okB, _ := b.AverageValue(c, w[0], w[1])
			if okA != okB || (okA && math.Abs(aa-ab) > tol*math.Max(1, math.Abs(ab))) {
				t.Fatalf("ch%d %v: incremental avg %v/%v != rebuild %v/%v", c, w, aa, okA, ab, okB)
			}
			va, okA, _ := a.VarianceValue(c, w[0], w[1])
			vb, okB, _ := b.VarianceValue(c, w[0], w[1])
			if okA != okB || (okA && math.Abs(va-vb) > tol*math.Max(1, math.Abs(vb))) {
				t.Fatalf("ch%d %v: incremental var %v/%v != rebuild %v/%v", c, w, va, okA, vb, okB)
			}
		}
	}
}

// TestLiveStoreIncrementalSealEquivalence is the incremental-seal
// property test: a random interleaving of appends, seals and exact scans,
// asserting at every checkpoint that the incrementally sealed engine
// answers COUNT/AVERAGE/VARIANCE identically to a from-scratch rebuild of
// the same data. In the default-threshold case every seal after the first
// must also be incremental and replay exactly one delta entry per channel
// per frame appended since the last seal: seal work is O(delta), not
// O(cube). The tiny-threshold case forces delta-log overflows so the
// rebuild fallback and the resumed tracking afterwards are covered too.
func TestLiveStoreIncrementalSealEquivalence(t *testing.T) {
	cases := []struct {
		name      string
		threshold int
	}{
		{"default-threshold", 0},
		{"tiny-threshold-overflows", 48},
	}
	const channels = 3
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(7 + tc.threshold)))
			inc := mkLive(t, channels, tc.threshold)
			ref := mkLive(t, channels, -1)
			// pending counts frames appended since inc's last seal; the
			// observer reports each materialising seal (none when pending
			// is 0: that Seal is a cache hit).
			pending, seals := 0, 0
			inc.cfg.SealObserver = func(_ time.Duration, incremental bool, deltaEntries int) {
				seals++
				if tc.threshold != 0 || seals == 1 {
					return
				}
				if !incremental || deltaEntries != pending*channels {
					t.Fatalf("seal %d: incremental=%v with %d delta entries, want incremental with %d (%d frames × %d channels)",
						seals, incremental, deltaEntries, pending*channels, pending, channels)
				}
			}
			checkpoint := func() { // seal both, compare
				stInc, err := inc.Seal()
				if err != nil {
					t.Fatal(err)
				}
				pending = 0
				stRef, err := ref.Seal()
				if err != nil {
					t.Fatal(err)
				}
				sealsAgree(t, rng, stInc, stRef, channels)
			}
			tick := 0
			for step := 0; step < 600; step++ {
				switch rng.Intn(12) {
				case 0:
					checkpoint()
				case 1: // exact scan parity on the live cubes
					c := rng.Intn(channels)
					t0 := rng.Float64() * 8
					t1 := t0 + rng.Float64()*4
					ni, _ := inc.CountSamples(c, t0, t1)
					nr, _ := ref.CountSamples(c, t0, t1)
					if ni != nr {
						t.Fatalf("live scan diverged: %v != %v", ni, nr)
					}
				default: // append 1–4 frames to both stores
					for k := 0; k < 1+rng.Intn(4); k++ {
						fr := make([]float64, channels)
						for c := range fr {
							fr[c] = rng.Float64()*20 - 10
						}
						if err := appendAt(inc, tick, fr); err != nil {
							t.Fatal(err)
						}
						if err := appendAt(ref, tick, fr); err != nil {
							t.Fatal(err)
						}
						tick++
						pending++
					}
				}
			}
			checkpoint() // final quiescent checkpoint
			if seals < 2 {
				t.Fatalf("only %d materialising seals", seals)
			}
		})
	}
}

// TestLiveStoreIncrementalSealConcurrent seals repeatedly while an
// appender runs (the -race half of the property test): every sealed
// answer must be consistent with some version between the counts read
// before and after the seal, and the final seal must match a from-scratch
// rebuild of the same frames.
func TestLiveStoreIncrementalSealConcurrent(t *testing.T) {
	const channels = 2
	const total = 1500
	inc := mkLive(t, channels, 0)
	frames := testFrames(total, channels)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for tick, fr := range frames {
			if err := appendAt(inc, tick, fr); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	for alive := true; alive; {
		select {
		case <-done:
			alive = false
		default:
		}
		before, _ := inc.CountSamples(0, 0, 1e9)
		st, err := inc.Seal()
		if err != nil {
			t.Fatal(err)
		}
		sealed, err := st.CountSamples(0, 0, 1e9)
		if err != nil {
			t.Fatal(err)
		}
		after, _ := inc.CountSamples(0, 0, 1e9)
		if sealed < before-1e-6 || sealed > after+1e-6 {
			t.Fatalf("sealed count %v outside live window [%v, %v]", sealed, before, after)
		}
	}

	ref := mkLive(t, channels, -1)
	for tick, fr := range frames {
		if err := appendAt(ref, tick, fr); err != nil {
			t.Fatal(err)
		}
	}
	stInc, err := inc.Seal()
	if err != nil {
		t.Fatal(err)
	}
	stRef, err := ref.Seal()
	if err != nil {
		t.Fatal(err)
	}
	sealsAgree(t, rand.New(rand.NewSource(99)), stInc, stRef, channels)
}

// gloveBody encodes 2 048 frames of a 28-channel glove, one per tick, as
// the wire carries them.
func gloveBody() []byte {
	rng := rand.New(rand.NewSource(2048))
	var body []byte
	for i := 0; i < 2048; i++ {
		body = binary.LittleEndian.AppendUint64(body, math.Float64bits(float64(i)/100))
		for c := 0; c < 28; c++ {
			body = binary.LittleEndian.AppendUint64(body, math.Float64bits(rng.Float64()*20-10))
		}
	}
	return body
}

// idleGloveBytes returns what one idle glove session's store holds and
// what building it allocated under cfg: a 2 048-frame preload, body binned
// beforehand as the server's reader bins it, then one whole-session exact
// scan of every channel, so its row cache
// exists as it does once the fleet layer has queried it. held is the heap
// the store keeps live; allocated also counts the garbage building it
// left, such as a cube that widened and left its narrower copy behind.
func idleGloveBytes(tb testing.TB, body []byte, cfg LiveStoreConfig) (held, allocated uint64) {
	mins, maxs := gloveRange(28)
	bn, err := NewBinner(mins, maxs, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	bins, _ := bn.Bin(body, nil)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC() // the first collection only moves sync.Pool caches aside
	runtime.ReadMemStats(&before)
	ls, err := NewLiveStore(mins, maxs, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if n, err := ls.AppendBins(bins); err != nil || n != 2048 {
		tb.Fatalf("stored %d of 2048 frames: %v", n, err)
	}
	for ch := 0; ch < 28; ch++ {
		if _, _, err := ls.Summarize(ch, 0, 1e9); err != nil {
			tb.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(ls)
	runtime.KeepAlive(bins) // live before and after
	return after.HeapAlloc - before.HeapAlloc, after.TotalAlloc - before.TotalAlloc
}

// TestIdleGloveStoreFootprint bounds an idle glove store at the default
// live geometry, 24 ticks a bucket: it holds at most 590 000 B and
// allocates at most 0.75 MiB. A bucket spans more than 15 ticks, so its
// cube starts, and stays, at 8 bits, 448 KiB, and its row cache is
// 114 KiB at 16 B a row. A 24 B row (619 KiB in all) or a cube at 16 bits
// fails the first bound; a cube that started at 4 bits and widened
// (another 224 KiB of garbage) fails the second.
func TestIdleGloveStoreFootprint(t *testing.T) {
	held, allocated := idleGloveBytes(t, gloveBody(), LiveStoreConfig{})
	if held > 590_000 {
		t.Errorf("an idle glove store holds %d B, want at most 590 000", held)
	}
	if allocated > 3<<20/4 {
		t.Errorf("building an idle glove store allocated %d B, want at most 0.75 MiB", allocated)
	}
}

// TestShortHorizonStoreFootprint bounds an idle glove store whose 2 048
// frames span a 2 048-tick horizon, 8 ticks a bucket: it holds, and
// allocates, at most 0.375 MiB. No bucket passes 15 frames, so its cube
// stays at 4 bits, 224 KiB; at 8 bits (448 KiB) it fails.
func TestShortHorizonStoreFootprint(t *testing.T) {
	held, allocated := idleGloveBytes(t, gloveBody(), LiveStoreConfig{HorizonTicks: 2048})
	if held > 3<<20/8 || allocated > 3<<20/8 {
		t.Fatalf("a short-horizon glove store holds %d B and allocated %d B, want at most 0.375 MiB each", held, allocated)
	}
}

// BenchmarkLiveStoreFootprint reports the bytes one idle glove store
// holds and allocates (see idleGloveBytes) at the default geometry and at
// a 2 048-tick horizon.
func BenchmarkLiveStoreFootprint(b *testing.B) {
	body := gloveBody()
	for _, horizon := range []int{0, 2048} {
		b.Run(fmt.Sprintf("horizon=%d", horizon), func(b *testing.B) {
			var held, allocated uint64
			for i := 0; i < b.N; i++ {
				h, a := idleGloveBytes(b, body, LiveStoreConfig{HorizonTicks: horizon})
				held, allocated = held+h, allocated+a
			}
			b.ReportMetric(float64(held)/float64(b.N), "B/store")
			b.ReportMetric(float64(allocated)/float64(b.N), "alloc-B/store")
		})
	}
}
