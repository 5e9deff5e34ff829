package compress

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestQuantizerRoundTrip(t *testing.T) {
	q := NewQuantizer(-10, 10, 8)
	if q.Levels() != 256 {
		t.Fatalf("Levels = %d", q.Levels())
	}
	for _, v := range []float64{-10, -3.7, 0, 5.5, 10} {
		back := q.Dequantize(q.Quantize(v))
		if math.Abs(back-v) > q.Step() {
			t.Errorf("round trip %v → %v exceeds one step %v", v, back, q.Step())
		}
	}
	// Clamping.
	if q.Quantize(-100) != 0 || q.Quantize(100) != 255 {
		t.Error("out-of-range values must clamp")
	}
}

// TestQuantizeEdgeBins: a value beyond the range lands in the edge level
// on its side however far out it is, and NaN in level 0 — whatever the
// platform makes of converting an out-of-range float to int.
func TestQuantizeEdgeBins(t *testing.T) {
	q := NewQuantizer(-5, 5, 6)
	for _, c := range []struct {
		v    float64
		want int
	}{
		{5, 63}, {6, 63}, {1e10, 63}, {2e18, 63}, {math.MaxFloat64, 63}, {math.Inf(1), 63},
		{-5, 0}, {-6, 0}, {-1e10, 0}, {-2e18, 0}, {-math.MaxFloat64, 0}, {math.Inf(-1), 0},
		{math.NaN(), 0},
	} {
		if got := q.Quantize(c.v); got != c.want {
			t.Errorf("Quantize(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}

// TestLevelRoundsAsMathRound pins Level's rounding to int(math.Round(x))
// across the whole in-range scale of a 16-bit quantiser, the widest there
// is: at every level, every half level and two ulps either side of both,
// and at random positions.
func TestLevelRoundsAsMathRound(t *testing.T) {
	const top = 1<<16 - 1
	check := func(x float64) {
		if !(x > 0 && x < top) {
			return
		}
		if got, want := Level(x, top), int(math.Round(x)); got != want {
			t.Fatalf("Level(%v) = %d, math.Round gives %d", x, got, want)
		}
	}
	for l := 0; l <= top; l++ {
		for _, x := range []float64{float64(l), float64(l) + 0.5} {
			lo, hi := x, x
			check(x)
			for i := 0; i < 2; i++ {
				lo, hi = math.Nextafter(lo, 0), math.Nextafter(hi, top)
				check(lo)
				check(hi)
			}
		}
	}
	check(math.SmallestNonzeroFloat64)
	check(0.49999999999999994)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		check(rng.Float64() * top)
	}
}

func TestQuantizerForDegenerate(t *testing.T) {
	q := QuantizerFor(nil, 8)
	if q.Max <= q.Min {
		t.Fatal("degenerate quantizer range")
	}
	q2 := QuantizerFor([]float64{3, 3, 3}, 4)
	if q2.Max <= q2.Min {
		t.Fatal("constant-signal quantizer range")
	}
	_ = q2.Quantize(3)
}

func TestQuantizerPanicsOnBadBits(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewQuantizer(0, 1, 20)
}

func TestQuantizeAllRoundTrip(t *testing.T) {
	x := []float64{0.1, 0.5, 0.9}
	q := NewQuantizer(0, 1, 12)
	back := q.DequantizeAll(q.QuantizeAll(x))
	for i := range x {
		if math.Abs(back[i]-x[i]) > q.Step() {
			t.Fatalf("mismatch at %d", i)
		}
	}
}

func TestHuffmanRoundTripProperty(t *testing.T) {
	f := func(data []byte) bool {
		enc := HuffmanEncode(data)
		dec, err := HuffmanDecode(enc)
		return err == nil && bytes.Equal(dec, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHuffmanCompressesSkewedData(t *testing.T) {
	data := make([]byte, 4096)
	rng := rand.New(rand.NewSource(1))
	for i := range data {
		if rng.Float64() < 0.9 {
			data[i] = 0
		} else {
			data[i] = byte(rng.Intn(8))
		}
	}
	if size := HuffmanSize(data); size >= len(data) {
		t.Fatalf("skewed data did not compress: %d ≥ %d", size, len(data))
	}
}

func TestHuffmanEdgeCases(t *testing.T) {
	for _, data := range [][]byte{nil, {}, {7}, {7, 7, 7, 7}, {0, 255}} {
		enc := HuffmanEncode(data)
		dec, err := HuffmanDecode(enc)
		if err != nil {
			t.Fatalf("decode %v: %v", data, err)
		}
		if !bytes.Equal(dec, data) {
			t.Fatalf("round trip %v → %v", data, dec)
		}
	}
}

func TestHuffmanDecodeRejectsGarbage(t *testing.T) {
	if _, err := HuffmanDecode([]byte{5}); err == nil {
		t.Fatal("expected error on truncated header")
	}
	// Valid header claiming data, but empty bit stream.
	enc := HuffmanEncode([]byte{1, 2, 3})
	if _, err := HuffmanDecode(enc[:len(enc)-1]); err == nil {
		t.Fatal("expected error on truncated bit stream")
	}
}

func TestADPCMTracksSmoothSignal(t *testing.T) {
	n := 2000
	x := make([]float64, n)
	for i := range x {
		x[i] = 8 * math.Sin(2*math.Pi*2*float64(i)/100)
	}
	codec := NewADPCM(x)
	enc := codec.Encode(x)
	dec := codec.Decode(enc, n)
	if len(dec) != n {
		t.Fatalf("decoded %d samples", len(dec))
	}
	var mse float64
	for i := range x {
		d := dec[i] - x[i]
		mse += d * d
	}
	mse /= float64(n)
	// Signal power is 32; ADPCM should track well under 1 % of it.
	if mse > 0.32 {
		t.Fatalf("ADPCM MSE %v too high", mse)
	}
	// 4 bits per sample: enc must be ≈ n/2 bytes.
	if len(enc) > n/2+3 {
		t.Fatalf("ADPCM size %d, want ≈ %d", len(enc), n/2)
	}
}

func TestADPCMEdgeCases(t *testing.T) {
	codec := ADPCM{Scale: 100}
	if got := codec.Encode(nil); got != nil {
		t.Fatal("empty encode")
	}
	if got := codec.Decode(nil, 5); got != nil {
		t.Fatal("empty decode")
	}
	one := codec.Encode([]float64{1.5})
	dec := codec.Decode(one, 1)
	if len(dec) != 1 || math.Abs(dec[0]-1.5) > 0.02 {
		t.Fatalf("single sample: %v", dec)
	}
}

func TestADPCMScaleSelection(t *testing.T) {
	c := NewADPCM([]float64{-2, 0, 3})
	if c.Scale != 10000 {
		t.Fatalf("Scale = %v, want 30000/3", c.Scale)
	}
	cz := NewADPCM([]float64{0, 0})
	if cz.Scale != 30000 {
		t.Fatalf("zero-signal Scale = %v", cz.Scale)
	}
}

func TestEncodedSize(t *testing.T) {
	if EncodedSize(0) != 0 {
		t.Fatal("size(0)")
	}
	if EncodedSize(1) != 3 {
		t.Fatalf("size(1) = %d", EncodedSize(1))
	}
	if EncodedSize(5) != 3+2 {
		t.Fatalf("size(5) = %d", EncodedSize(5))
	}
	// EncodedSize must match Encode's actual output length.
	for _, n := range []int{1, 2, 5, 100, 101} {
		x := make([]float64, n)
		for i := range x {
			x[i] = float64(i)
		}
		if got := len(NewADPCM(x).Encode(x)); got != EncodedSize(n) {
			t.Fatalf("n=%d: Encode length %d != EncodedSize %d", n, got, EncodedSize(n))
		}
	}
}

func TestADPCMRandomWalkProperty(t *testing.T) {
	// Any smooth-ish signal must round-trip with error bounded by a few
	// adaptation steps.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 100 + rng.Intn(500)
		x := make([]float64, n)
		v := 0.0
		for i := range x {
			v += rng.NormFloat64() * 0.05
			x[i] = v
		}
		codec := NewADPCM(x)
		dec := codec.Decode(codec.Encode(x), n)
		if len(dec) != n {
			return false
		}
		var mse, power float64
		for i := range x {
			d := dec[i] - x[i]
			mse += d * d
			power += x[i] * x[i]
		}
		if power == 0 {
			return true
		}
		return mse/(power+1e-9) < 0.05
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
