package propolyne

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"aims/internal/wavelet"
)

// freshEnergy is the reference the maintained energy is checked against:
// a from-scratch Σ coeff² over the engine's coefficients.
func freshEnergy(e *Engine) float64 {
	var s float64
	for _, v := range e.Coeffs {
		s += v * v
	}
	return s
}

// randomGeometry draws a 2–3 dimensional cube shape and a basis assignment
// of the requested kind; hybrid mixes at least one standard and one
// wavelet dimension.
func randomGeometry(t *testing.T, rng *rand.Rand, kind string) ([]int, []Basis) {
	t.Helper()
	dims := make([]int, 2+rng.Intn(2))
	for d := range dims {
		dims[d] = 4 << rng.Intn(3) // 4, 8 or 16
	}
	f, err := wavelet.ForDegree(rng.Intn(3))
	if err != nil {
		t.Fatal(err)
	}
	bases := make([]Basis, len(dims))
	for d := range bases {
		switch kind {
		case "standard":
			bases[d] = Basis{Standard: true}
		case "wavelet":
			bases[d] = Basis{Filter: f}
		default:
			if d == 0 || (d > 1 && rng.Intn(2) == 0) {
				bases[d] = Basis{Standard: true}
			} else {
				bases[d] = Basis{Filter: f}
			}
		}
	}
	return dims, bases
}

// TestEnergyMaintainedIncrementally is the energy property test: over
// random standard, wavelet and hybrid geometries, ≥ 10⁵ point updates
// arrive interleaved through single Appends, runs of them and AppendOffsets — with
// duplicate cells and, where weights are the caller's, negative and
// fractional ones — and at every checkpoint the maintained energy must
// still be valid (never fall back to a rescan) and equal a fresh Σ coeff²
// within 1e-9 relative. On a pure-relational engine fed unit weights all
// the arithmetic is on integer-valued floats, so there it must match
// bit for bit.
func TestEnergyMaintainedIncrementally(t *testing.T) {
	const updates = 100_000
	for _, tc := range []struct {
		kind string
		unit bool // unit weights only: the exact-arithmetic case
	}{{"standard", false}, {"standard", true}, {"wavelet", false}, {"hybrid", false}} {
		kind, unit := tc.kind, tc.unit
		for seed := int64(1); seed <= 2; seed++ {
			rng := rand.New(rand.NewSource(seed*31 + int64(len(kind))))
			dims, bases := randomGeometry(t, rng, kind)
			cells := wavelet.Dims(dims).Size()
			e, err := NewWithBases(randomRelation(rng, dims, 500).Cube(), dims, bases)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := e.Energy(), freshEnergy(e); got != want {
				t.Fatalf("%s %v: first Energy() = %v, fresh sum %v", kind, dims, got, want)
			}
			weight := func() float64 {
				if unit {
					return 1
				}
				return float64(rng.Intn(9)-3) / 2 // −1.5 … 2.5, zero included
			}
			tuple := func() []int {
				ix := make([]int, len(dims))
				for d, n := range dims {
					ix[d] = rng.Intn(n)
				}
				return ix
			}
			check := func(done int) {
				t.Helper()
				if !e.energyValid {
					t.Fatalf("%s %v: energy invalidated after %d updates", kind, dims, done)
				}
				got, want := e.Energy(), freshEnergy(e)
				if unit && got != want {
					t.Fatalf("%s %v: after %d unit updates energy %v != fresh sum %v (must be exact)", kind, dims, done, got, want)
				}
				if math.Abs(got-want) > 1e-9*want {
					t.Fatalf("%s %v: after %d updates energy %v drifted from fresh sum %v", kind, dims, done, got, want)
				}
			}
			done := 0
			for round := 0; done < updates; round++ {
				switch rng.Intn(8) {
				case 0:
					if err := e.Append(tuple(), weight()); err != nil {
						t.Fatal(err)
					}
					done++
				case 1, 2, 3:
					for n := 64 + rng.Intn(448); n > 0; n-- {
						if err := e.Append(tuple(), weight()); err != nil {
							t.Fatal(err)
						}
						done++
					}
				default:
					// More entries than cells on the small cubes: duplicates
					// are the common case, as in a live session's delta log.
					offs := make([]uint32, 256+rng.Intn(3840))
					for k := range offs {
						offs[k] = uint32(rng.Intn(cells))
					}
					if err := e.AppendOffsets(offs); err != nil {
						t.Fatal(err)
					}
					done += len(offs)
				}
				if round%16 == 0 {
					check(done)
				}
			}
			check(done)
		}
	}
}

// TestAppendOffsetsMatchesAppendBatch pins the offset entry point to a
// batch of tuples appended one at a time: an AppendOffsets batch against an
// Append loop over the same cells, on a hybrid engine (the dedup branch)
// and a pure-relational one (the streaming branch), with heavy collisions.
// A weight-w Append is w repeats of its offset in the batch, so duplicate
// collapsing is checked against non-unit weights. Coefficients and the
// maintained energy must agree.
func TestAppendOffsetsMatchesAppendBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dims := []int{4, 16, 8}
	f, err := wavelet.ForDegree(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, bases := range [][]Basis{
		{{Standard: true}, {Filter: f}, {Filter: f}},
		AllStandard(dims),
	} {
		cube := randomRelation(rng, dims, 200).Cube()
		batched, err := NewWithBases(slices.Clone(cube), dims, bases)
		if err != nil {
			t.Fatal(err)
		}
		oneByOne, err := NewWithBases(cube, dims, bases)
		if err != nil {
			t.Fatal(err)
		}
		batched.Energy() // computed once; from here the appends maintain it
		oneByOne.Energy()
		var offs []uint32
		for k := 0; k < 200; k++ {
			ix := []int{rng.Intn(4), rng.Intn(16) % 5, rng.Intn(8) % 3} // heavy collisions
			w := 1 + rng.Intn(3)
			if err := oneByOne.Append(ix, float64(w)); err != nil {
				t.Fatal(err)
			}
			for ; w > 0; w-- {
				offs = append(offs, uint32(wavelet.Dims(dims).Offset(ix)))
			}
		}
		if err := batched.AppendOffsets(offs); err != nil {
			t.Fatal(err)
		}
		for i := range oneByOne.Coeffs {
			if math.Abs(batched.Coeffs[i]-oneByOne.Coeffs[i]) > 1e-9 {
				t.Fatalf("coefficient %d: batched %v, one by one %v", i, batched.Coeffs[i], oneByOne.Coeffs[i])
			}
		}
		if got, want := batched.Energy(), oneByOne.Energy(); math.Abs(got-want) > 1e-9*want {
			t.Fatalf("energy: batched %v, one by one %v", got, want)
		}
		if got, want := batched.Energy(), freshEnergy(batched); math.Abs(got-want) > 1e-9*want {
			t.Fatalf("maintained energy %v, fresh sum %v", got, want)
		}
	}
}
