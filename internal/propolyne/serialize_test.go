package propolyne

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"aims/internal/synth"
	"aims/internal/wavelet"
)

func TestEngineSerializeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sizes := []int{32, 16, 8}
	rel := randomRelation(rng, sizes, 600)
	bases, err := ChooseBases(sizes, QueryTemplate{
		RangeFraction: []float64{0.1, 0.9, 1},
		MaxDegree:     2,
	}, DefaultCostModel)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := NewWithBases(rel.Cube(), sizes, bases)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEngine(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// Structure round-trips.
	for d := range sizes {
		if back.Dims[d] != orig.Dims[d] || back.Levels[d] != orig.Levels[d] {
			t.Fatalf("dim %d metadata mismatch", d)
		}
		if back.Bases[d].Standard != orig.Bases[d].Standard {
			t.Fatalf("dim %d basis kind mismatch", d)
		}
		if !orig.Bases[d].Standard && back.Bases[d].Filter.Name != orig.Bases[d].Filter.Name {
			t.Fatalf("dim %d filter mismatch", d)
		}
	}
	for i := range orig.Coeffs {
		if back.Coeffs[i] != orig.Coeffs[i] {
			t.Fatalf("coefficient %d differs", i)
		}
	}

	// Queries agree exactly.
	b := randomBox(rng, sizes)
	q := Query{Lo: b.Lo, Hi: b.Hi}
	v1, _, err := orig.Exact(q)
	if err != nil {
		t.Fatal(err)
	}
	v2, _, err := back.Exact(q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v1-v2) > 1e-12 {
		t.Fatalf("query drift: %v vs %v", v1, v2)
	}
	// The restored engine accepts appends (filters intact).
	if err := back.Append([]int{1, 2, 3}, 1); err != nil {
		t.Fatal(err)
	}
}

func TestReadEngineRejectsCorruption(t *testing.T) {
	e, err := New(synth.SmoothCube([]int{16, 16}, 2), []int{16, 16}, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := e.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := map[string][]byte{
		"empty":           {},
		"bad magic":       append([]byte("NOTAIMS!"), good[8:]...),
		"truncated":       good[:len(good)-9],
		"truncated early": good[:14],
	}
	for name, data := range cases {
		if _, err := ReadEngine(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: corruption accepted", name)
		}
	}

	// Bad dimension size (non power of two) rejected.
	mut := append([]byte(nil), good...)
	mut[12] = 7 // first dim least-significant byte → 7
	if _, err := ReadEngine(bytes.NewReader(mut)); err == nil {
		t.Error("non-power-of-two dimension accepted")
	}
}

// TestReadEngineNoOverAllocation hand-crafts headers whose length fields
// describe cubes far larger than the payload (or than memory); the reader
// must reject them before allocating, and must survive every prefix
// truncation of a valid blob without panicking.
func TestReadEngineNoOverAllocation(t *testing.T) {
	header := func(dims []uint32) []byte {
		var b bytes.Buffer
		b.Write([]byte("AIMSPPE1"))
		binary.Write(&b, binary.LittleEndian, uint32(len(dims)))
		for _, d := range dims {
			binary.Write(&b, binary.LittleEndian, d)
		}
		return b.Bytes()
	}
	for name, data := range map[string][]byte{
		// 16 maximal dims: the naive product overflows int64 back into
		// small positives; must be caught by the cell cap, not the wrap.
		"overflowing dims": header([]uint32{
			1 << 24, 1 << 24, 1 << 24, 1 << 24, 1 << 24, 1 << 24, 1 << 24, 1 << 24,
			1 << 24, 1 << 24, 1 << 24, 1 << 24, 1 << 24, 1 << 24, 1 << 24, 1 << 24,
		}),
		"huge cube": header([]uint32{1 << 24, 1 << 24}),
	} {
		if _, err := ReadEngine(bytes.NewReader(data)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}

	e, err := New(synth.SmoothCube([]int{8, 8}, 2), []int{8, 8}, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := e.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	for i := 0; i < len(good); i++ {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("prefix %d panicked: %v", i, r)
				}
			}()
			if _, err := ReadEngine(bytes.NewReader(good[:i])); err == nil {
				t.Errorf("prefix %d accepted", i)
			}
		}()
	}
}

// writeEngineReference is the serialiser as it stood before the bulk
// encoder — one reflective binary.Write per field and per coefficient. It
// stays here as the oracle: snapshots written by earlier commits must read
// back, so WriteTo's bytes may never drift from it.
func writeEngineReference(e *Engine, w *bytes.Buffer) {
	write := func(v interface{}) { binary.Write(w, binary.LittleEndian, v) }
	write(engineMagic)
	write(uint32(len(e.Dims)))
	for _, d := range e.Dims {
		write(uint32(d))
	}
	for d, b := range e.Bases {
		std, name := uint8(0), ""
		if b.Standard {
			std = 1
		} else {
			name = b.Filter.Name
		}
		write(std)
		write(uint8(len(name)))
		w.WriteString(name)
		write(uint32(e.Levels[d]))
	}
	write(uint64(len(e.Coeffs)))
	for _, v := range e.Coeffs {
		write(math.Float64bits(v))
	}
}

// TestEngineWriteToMatchesReferenceBytes: hybrid, pure-relational and
// all-wavelet engines — cubes smaller than, equal to and several times the
// coefficient chunk — serialise to exactly the reference bytes, and
// WriteTo reports exactly that many.
func TestEngineWriteToMatchesReferenceBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// The shape LiveStore.Seal chooses: relational over the channel
	// dimension, wavelets over time and value.
	hybrid := func(sizes []int) []Basis {
		f, err := wavelet.ForDegree(1)
		if err != nil {
			t.Fatal(err)
		}
		return []Basis{{Standard: true}, {Filter: f}, {Filter: f}}
	}
	wavelets := func(sizes []int) []Basis {
		bases, err := AllWavelet(sizes, 1)
		if err != nil {
			t.Fatal(err)
		}
		return bases
	}
	for name, tc := range map[string]struct {
		sizes []int
		bases func([]int) []Basis
	}{
		"hybrid":               {[]int{32, 16, 8}, hybrid},
		"hybrid, many chunks":  {[]int{32, 32, 16}, hybrid},
		"relational":           {[]int{16, 16, 8}, AllStandard},
		"relational, 1 chunk":  {[]int{16, 16, 16}, AllStandard},
		"wavelet, chunk + 1/2": {[]int{64, 32, 4}, wavelets},
	} {
		bases := tc.bases(tc.sizes)
		e, err := NewWithBases(randomRelation(rng, tc.sizes, 900).Cube(), tc.sizes, bases)
		if err != nil {
			t.Fatal(err)
		}
		var want, got bytes.Buffer
		writeEngineReference(e, &want)
		n, err := e.WriteTo(&got)
		if err != nil {
			t.Fatal(err)
		}
		if n != int64(got.Len()) {
			t.Errorf("%s: WriteTo reports %d bytes, wrote %d", name, n, got.Len())
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: %d bytes differ from the %d reference bytes", name, got.Len(), want.Len())
		}
	}
}

// TestReadEngineTruncatedAtChunkBoundaries cuts a multi-chunk blob one
// byte before, at and one byte after every coefficient chunk boundary
// (and the same around its end): every cut short of the whole is refused.
func TestReadEngineTruncatedAtChunkBoundaries(t *testing.T) {
	sizes := []int{64, 32, 8} // 16 384 coefficients: four chunks
	e, err := New(synth.SmoothCube(sizes, 2), sizes, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := e.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	header := len(good) - 8*len(e.Coeffs)
	if len(e.Coeffs) != 4*coeffChunk {
		t.Fatalf("cube holds %d coefficients, want four chunks of %d", len(e.Coeffs), coeffChunk)
	}
	for c := 0; c <= 4; c++ {
		for _, off := range []int{-1, 0, 1} {
			cut := header + 8*coeffChunk*c + off
			if cut >= len(good) {
				continue
			}
			if _, err := ReadEngine(bytes.NewReader(good[:cut])); err == nil {
				t.Errorf("blob cut at chunk %d%+d (%d of %d bytes) accepted", c, off, cut, len(good))
			}
		}
	}
	back, err := ReadEngine(bytes.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range e.Coeffs {
		if back.Coeffs[i] != v {
			t.Fatalf("coefficient %d differs after round trip", i)
		}
	}
}

// snapshotCube is the engine a glove session's snapshot carries: 28
// channels padded to 32 × 256 time buckets × 64 value bins.
func snapshotCube(b *testing.B) *Engine {
	sizes := []int{32, 256, 64}
	e, err := New(synth.SmoothCube(sizes, 2), sizes, 1)
	if err != nil {
		b.Fatal(err)
	}
	return e
}

func BenchmarkEngineWriteTo(b *testing.B) {
	e := snapshotCube(b)
	var buf bytes.Buffer
	buf.Grow(8*len(e.Coeffs) + 256)
	b.SetBytes(int64(8 * len(e.Coeffs)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if _, err := e.WriteTo(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadEngine(b *testing.B) {
	e := snapshotCube(b)
	var buf bytes.Buffer
	if _, err := e.WriteTo(&buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(8 * len(e.Coeffs)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		back, err := ReadEngine(bytes.NewReader(buf.Bytes()))
		if err != nil || len(back.Coeffs) != len(e.Coeffs) {
			b.Fatal(err)
		}
	}
}
