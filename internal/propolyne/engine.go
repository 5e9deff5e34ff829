// Package propolyne implements ProPolyne — the Progressive Polynomial
// Range-Sum Evaluator at the heart of AIMS's off-line query subsystem
// (§3.3 of the paper; Schmidt & Shahabi, EDBT'02/PODS'02).
//
// The data is the dense frequency cube of a relation whose every attribute
// (measures included) is a dimension. The cube is wavelet-transformed per
// dimension — possibly with a different basis per dimension, including the
// standard (identity) basis for the hybrid engine of §3.3.1 — and a
// polynomial range-sum
//
//	Σ_{x ∈ range} Δ(x) · ∏_d p_d(x_d)
//
// becomes a sparse dot product in the transformed domain: the per-dimension
// lazy wavelet transform turns each factor p_d·1_range into O(filter·log n)
// coefficients, and the tensor product of those sparse vectors hits only a
// polylogarithmic number of data coefficients. Evaluating the largest query
// coefficients first yields progressive, error-bounded approximate answers.
package propolyne

import (
	"fmt"
	"slices"
	"sync"

	"aims/internal/vec"
	"aims/internal/wavelet"
)

// Basis selects the transform of one dimension.
type Basis struct {
	// Standard marks the identity basis (the hybrid engine's "standard
	// dimensions"); Filter is ignored when set.
	Standard bool
	Filter   wavelet.Filter
}

// Engine is a populated ProPolyne store: the transformed cube plus the
// per-dimension basis book-keeping.
type Engine struct {
	Dims   wavelet.Dims
	Bases  []Basis
	Levels []int
	// Coeffs is the cube transformed along every wavelet dimension
	// (identity along standard dimensions), row-major.
	Coeffs []float64

	// mu guards Coeffs and the data energy: queries take the read lock,
	// appends the write lock, so any number of concurrent readers coexist
	// with a single writer. cacheMu guards bandEnergy and is always acquired
	// BEFORE mu where both are needed. Direct Coeffs access (tests, the
	// block-store builder) is only safe without concurrent appends.
	mu      sync.RWMutex
	cacheMu sync.Mutex
	// energy is Σ coeff², kept current by every coefficient write (bump)
	// once energyValid.
	energy      float64
	energyValid bool
	// bandEnergy caches per-subband-cell Σ coeff² for the refined bounds;
	// nil means "recompute".
	bandEnergy map[int]float64

	// fp memoises Fingerprint — the geometry key plans are cached under.
	// Dims/Bases/Levels are immutable after construction, so once is enough.
	fpOnce sync.Once
	fp     string
}

// Query is a polynomial range-sum: per-dimension inclusive ranges and
// per-dimension polynomial factors (nil ⇒ constant 1). The measure
// polynomial's degree per dimension must stay below the vanishing moments
// of that dimension's filter for sparse evaluation; higher degrees still
// evaluate exactly via the dense fallback.
//
// Trace is an out-param, not part of the query's shape: when non-nil, the
// evaluation records its plan provenance there. The plan cache keys on the
// shape alone and never keeps the pointer.
type Query struct {
	Lo, Hi []int
	Polys  []vec.Poly
	Trace  *PlanTrace
}

// Stats reports the work one evaluation did.
type Stats struct {
	// PerDim is the nonzero count of each dimension's query vector.
	PerDim []int
	// QueryCoeffs is the size of the tensor-product query support — the
	// number of data coefficients the evaluation touches (its I/O cost).
	QueryCoeffs int
}

// New populates an engine from a dense cube. maxDegree is the highest
// per-dimension polynomial degree queries will use ("up to a degree
// specified when the database is populated"); it selects the shortest
// Daubechies filter with enough vanishing moments for every dimension.
// The engine takes ownership of cube, as NewWithBases does.
func New(cube []float64, dims []int, maxDegree int) (*Engine, error) {
	f, err := wavelet.ForDegree(maxDegree)
	if err != nil {
		return nil, err
	}
	bases := make([]Basis, len(dims))
	for d := range bases {
		bases[d] = Basis{Filter: f}
	}
	return NewWithBases(cube, dims, bases)
}

// NewWithBases populates an engine with an explicit per-dimension basis
// assignment — the multi-basis configuration of §3.1.1/§3.3.1.
//
// The engine takes ownership of cube: it is transformed in place and kept
// as Coeffs, so building an engine costs no second cube. A caller that
// still needs the untransformed cube passes slices.Clone(cube). On error
// cube is left untouched.
func NewWithBases(cube []float64, dims []int, bases []Basis) (*Engine, error) {
	if len(bases) != len(dims) {
		return nil, fmt.Errorf("propolyne: %d bases for %d dims", len(bases), len(dims))
	}
	wd := wavelet.Dims(dims)
	if wd.Size() != len(cube) {
		return nil, fmt.Errorf("propolyne: cube size %d != dims %v", len(cube), dims)
	}
	for _, n := range dims {
		if n <= 0 || n&(n-1) != 0 {
			return nil, fmt.Errorf("propolyne: dimension size %d is not a power of two", n)
		}
	}
	e := &Engine{
		Dims:   wd,
		Bases:  append([]Basis(nil), bases...),
		Levels: make([]int, len(dims)),
		Coeffs: cube,
	}
	for axis, b := range e.Bases {
		if b.Standard {
			continue
		}
		e.Levels[axis] = wavelet.TransformAxis(e.Coeffs, e.Dims, axis, b.Filter, -1)
	}
	return e, nil
}

// Relational returns the pure-relational geometry of dims — the standard
// basis on every axis — as an engine that holds no coefficients. It
// compiles plans for a cube its caller keeps (through SharedCache, under
// the same fingerprint as a populated engine of that geometry), whose
// entries' indices are then the cube's own flat offsets, for Estimate and
// Steps to walk. Its coefficient surfaces — Exact, EvalPlan,
// Energy, the estimates and the appends — are not for use.
func Relational(dims []int) *Engine {
	return &Engine{Dims: wavelet.Dims(dims), Bases: AllStandard(dims), Levels: make([]int, len(dims))}
}

// Energy returns Σ coefficient² — the data-energy term of the progressive
// error bound. Appends maintain it incrementally, so the cube is scanned
// only for an engine whose energy was never computed (fresh from New,
// ReadEngine or WithApproximation); safe for concurrent use, and readers
// of a computed value do not exclude each other.
func (e *Engine) Energy() float64 {
	e.mu.RLock()
	s, ok := e.energy, e.energyValid
	e.mu.RUnlock()
	if ok {
		return s
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.energyValid {
		s = 0
		for _, v := range e.Coeffs {
			s += v * v
		}
		e.energy, e.energyValid = s, true
	}
	return e.energy
}

// validate checks a query against the schema.
func (e *Engine) validate(q Query) error {
	d := len(e.Dims)
	if len(q.Lo) != d || len(q.Hi) != d {
		return fmt.Errorf("propolyne: query arity %d/%d != %d", len(q.Lo), len(q.Hi), d)
	}
	if len(q.Polys) > d {
		return fmt.Errorf("propolyne: %d polynomials for %d dims", len(q.Polys), d)
	}
	for i := range q.Lo {
		if q.Lo[i] < 0 || q.Hi[i] >= e.Dims[i] || q.Lo[i] > q.Hi[i] {
			return fmt.Errorf("propolyne: range [%d,%d] invalid for dim %d (size %d)",
				q.Lo[i], q.Hi[i], i, e.Dims[i])
		}
	}
	return nil
}

// QueryCoefficients flattens the tensor product of per-dimension query
// vectors into (flat cube offset, weight) pairs, in ascending-offset order
// (a deterministic total order — offsets within one query are distinct).
// The slice is freshly allocated per call; callers may reorder it.
func (e *Engine) QueryCoefficients(q Query) ([]wavelet.Entry, Stats, error) {
	p, err := e.plan(q)
	if err != nil {
		return nil, Stats{}, err
	}
	entries := p.AppendEntries(make([]wavelet.Entry, 0, p.stats.QueryCoeffs))
	return entries, p.Stats(), nil
}

// Explain describes how a query would be evaluated without running it —
// the engine's EXPLAIN: per-dimension basis, range, polynomial degree and
// query-vector sparsity, plus the total touched-coefficient cost.
type Explain struct {
	PerDim      []DimPlan
	QueryCoeffs int
}

// DimPlan is one dimension's slice of the plan.
type DimPlan struct {
	Dim      int
	Basis    string // "standard" or the filter name
	Lo, Hi   int
	Degree   int
	Nonzeros int
}

// String renders the plan compactly.
func (ex Explain) String() string {
	s := fmt.Sprintf("touch %d coefficients:", ex.QueryCoeffs)
	for _, d := range ex.PerDim {
		s += fmt.Sprintf(" [dim %d %s range %d..%d deg %d → %d nz]",
			d.Dim, d.Basis, d.Lo, d.Hi, d.Degree, d.Nonzeros)
	}
	return s
}

// ExplainQuery returns the evaluation plan for q. It compiles (or fetches)
// the same plan execution would use, so the explained cost is the executed
// cost by construction — and explaining a query warms its cache slot.
func (e *Engine) ExplainQuery(q Query) (Explain, error) {
	p, err := e.plan(q)
	if err != nil {
		return Explain{}, err
	}
	ex := Explain{QueryCoeffs: p.stats.QueryCoeffs}
	for d := range e.Dims {
		basis := "standard"
		if !e.Bases[d].Standard {
			basis = e.Bases[d].Filter.Name
		}
		deg := 0
		if d < len(q.Polys) && q.Polys[d] != nil {
			deg = q.Polys[d].Degree()
		}
		ex.PerDim = append(ex.PerDim, DimPlan{
			Dim: d, Basis: basis, Lo: q.Lo[d], Hi: q.Hi[d],
			Degree: deg, Nonzeros: p.stats.PerDim[d],
		})
	}
	return ex, nil
}

// Exact evaluates the polynomial range-sum exactly in the transformed
// domain: compile (or fetch) the plan, then one allocation-free sparse dot
// product under the read lock. Summation order is ascending flat offset,
// so repeated evaluations over unchanged coefficients are bit-identical.
func (e *Engine) Exact(q Query) (float64, Stats, error) {
	p, err := e.plan(q)
	if err != nil {
		return 0, Stats{}, err
	}
	return e.EvalPlan(p), p.Stats(), nil
}

// Append inserts one tuple with the given weight (typically 1) without
// retransforming the cube: the wavelet transform of a point mass is sparse
// per dimension, so the update touches only the tensor product of those
// sparse vectors — the low-cost incremental append of §3.1.1.
func (e *Engine) Append(tuple []int, weight float64) error {
	off, err := e.cellOffset(tuple)
	if err != nil {
		return err
	}
	scatter(e, []int{off}, []float64{weight})
	return nil
}

// HasWaveletDims reports whether any dimension is wavelet-transformed
// (false means the engine is pure-relational: a point append touches
// exactly one coefficient).
func (e *Engine) HasWaveletDims() bool {
	for _, b := range e.Bases {
		if !b.Standard {
			return true
		}
	}
	return false
}

// cellOffset validates one tuple against the schema and returns the flat
// row-major offset of its cube cell.
func (e *Engine) cellOffset(tuple []int) (int, error) {
	if len(tuple) != len(e.Dims) {
		return 0, fmt.Errorf("propolyne: tuple arity %d != %d", len(tuple), len(e.Dims))
	}
	off := 0
	for d, v := range tuple {
		if v < 0 || v >= e.Dims[d] {
			return 0, fmt.Errorf("propolyne: tuple value %d outside dim %d", v, d)
		}
		off = off*e.Dims[d] + v
	}
	return off, nil
}

// AppendOffsets is the bulk form of Append for a caller that already
// addresses a cube of the engine's shape: one unit-weight tuple per entry
// of offs, each the flat row-major offset of its cell — core.LiveStore's
// delta log, replayed as it was recorded. The whole batch is scattered
// under one write-lock acquisition, so concurrent readers observe it
// atomically. Validation is up-front and all-or-nothing. offs may
// be reordered: where wavelet dimensions make every distinct cell a
// tensor-product scatter, duplicates are first collapsed (sort + run
// length) into one weighted mass each; on a pure-relational engine a
// duplicate costs one add, so the log is streamed as is.
func (e *Engine) AppendOffsets(offs []uint32) error {
	for _, off := range offs {
		if int(off) >= len(e.Coeffs) {
			return fmt.Errorf("propolyne: cell offset %d outside cube of %d cells", off, len(e.Coeffs))
		}
	}
	var weights []float64
	if e.HasWaveletDims() {
		slices.Sort(offs)
		n := 0
		for _, off := range offs {
			if n > 0 && off == offs[n-1] {
				weights[n-1]++
				continue
			}
			offs[n] = off
			weights = append(weights, 1)
			n++
		}
		offs = offs[:n]
	}
	scatter(e, offs, weights)
	return nil
}

// bump adds w to one coefficient and returns the change in Σ coeff² it
// caused, (c+w)² − c² = w·(2c+w). Every coefficient write after
// construction goes through here; that is what keeps Engine.energy
// current without rescanning the cube. Callers hold mu for writing.
func (e *Engine) bump(off int, w float64) float64 {
	old := e.Coeffs[off]
	e.Coeffs[off] = old + w
	return w * (2*old + w)
}

// scatter adds the point masses weights[k]·δ(offs[k]) — unit masses when
// weights is nil — to the transformed cube in one engine transaction: the
// routine behind Append and AppendOffsets. offs are validated
// flat row-major cell offsets.
func scatter[O int | uint32](e *Engine, offs []O, weights []float64) {
	if len(offs) == 0 {
		return
	}
	strides := e.Dims.Strides()
	// Memoise the wavelet dims' sparse vectors before taking any lock
	// (DeltaTransform is the expensive part); standard dims are inline
	// singletons and need no table.
	var caches []map[int][]wavelet.Entry
	for d := range e.Dims {
		if e.Bases[d].Standard {
			continue
		}
		if caches == nil {
			caches = make([]map[int][]wavelet.Entry, len(e.Dims))
		}
		caches[d] = make(map[int][]wavelet.Entry)
		for _, off := range offs {
			v := int(off) / strides[d] % e.Dims[d]
			if _, ok := caches[d][v]; !ok {
				caches[d][v] = wavelet.DeltaTransform(e.Dims[d], v, 1, e.Bases[d].Filter, e.Levels[d]).Ordered()
			}
		}
	}
	weight := func(k int) float64 {
		if weights == nil {
			return 1
		}
		return weights[k]
	}
	var dE float64
	e.cacheMu.Lock()
	e.mu.Lock()
	if caches == nil {
		// Pure-relational engine: every mass lands on exactly one
		// coefficient, so scatter directly without the tensor recursion.
		for k, off := range offs {
			dE += e.bump(int(off), weight(k))
		}
	} else {
		per := make([][]wavelet.Entry, len(e.Dims))
		singles := make([]wavelet.Entry, len(e.Dims)) // storage for standard-dim singletons
		var rec func(d, off int, w float64)
		rec = func(d, off int, w float64) {
			if d == len(per) {
				dE += e.bump(off, w)
				return
			}
			for _, en := range per[d] {
				rec(d+1, off+en.Index*strides[d], w*en.Value)
			}
		}
		for k, off := range offs {
			for d := range e.Dims {
				v := int(off) / strides[d] % e.Dims[d]
				if e.Bases[d].Standard {
					singles[d] = wavelet.Entry{Index: v, Value: 1}
					per[d] = singles[d : d+1]
				} else {
					per[d] = caches[d][v]
				}
			}
			rec(0, 0, weight(k))
		}
	}
	if e.energyValid {
		e.energy += dE
	}
	e.mu.Unlock()
	e.bandEnergy = nil
	e.cacheMu.Unlock()
}

// WithApproximation returns a copy of the engine whose coefficient store
// keeps only the k largest-magnitude coefficients — the classical wavelet
// *data approximation* baseline (Vitter–Wang style) that experiment E3
// contrasts with ProPolyne's query approximation.
func (e *Engine) WithApproximation(k int) *Engine {
	e.mu.RLock()
	sparse := wavelet.TopK(e.Coeffs, k)
	e.mu.RUnlock()
	out := &Engine{
		Dims:   e.Dims,
		Bases:  e.Bases,
		Levels: e.Levels,
		Coeffs: sparse.Dense(len(e.Coeffs)),
	}
	return out
}
