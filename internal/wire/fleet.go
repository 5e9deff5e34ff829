package wire

import "fmt"

// Fleet messages: one range-aggregate evaluated over every live session
// of a device class — the paper's multi-user haptic scenario, where the
// question is about the *group* of CyberGlove sessions, not one
// recording — or over an explicit session-ID set. The server scans the
// matching sessions, each contributing frames up to its own high-water
// mark when its scan runs, and merges the per-session answers;
// the result carries the merged value plus per-session detail (watermark
// and mergeable partials on success, a code and message on failure).

// MaxFleetIDs bounds an explicit session-ID scope.
const MaxFleetIDs = 65535

// MaxFleetDetail bounds the per-session detail lists a FleetResult may
// carry. A fleet over more sessions still answers — the server just elides
// the per-session parts past the cap (failures are never elided; they are
// bounded by the same cap at the policy layer).
const MaxFleetDetail = 65535

// FleetScope selects which sessions a fleet query spans: every live
// session of a device class, or an explicit session-ID set. Exactly one
// selector must be set.
type FleetScope struct {
	Class string
	IDs   []uint64
}

// Validate checks that exactly one selector is populated.
func (s FleetScope) Validate() error {
	if (s.Class == "") == (len(s.IDs) == 0) {
		return fmt.Errorf("wire: fleet scope needs exactly one of class or session IDs")
	}
	if len(s.IDs) > MaxFleetIDs {
		return fmt.Errorf("wire: fleet scope lists %d sessions, max %d", len(s.IDs), MaxFleetIDs)
	}
	return nil
}

// String renders the scope for logs and CLI output.
func (s FleetScope) String() string {
	if s.Class != "" {
		return "class=" + s.Class
	}
	return fmt.Sprintf("ids=%v", s.IDs)
}

// FleetQuery is one cross-session range-aggregate: the same aggregate
// vocabulary as Query, a scope selector, the partial-result policy and a
// per-query deadline (0 = server default).
type FleetQuery struct {
	Query
	Scope FleetScope
	// Partial lets the query answer from the sessions that succeeded when
	// some fail or miss the deadline (the result is CodePartial and names
	// the failures). Without it any per-session failure fails the query.
	Partial       bool
	TimeoutMillis uint32
}

// Encode serialises the FleetQuery payload.
func (q FleetQuery) Encode() ([]byte, error) {
	if err := q.Scope.Validate(); err != nil {
		return nil, err
	}
	if err := checkRange(q.T0, q.T1); err != nil {
		return nil, err
	}
	var e buf
	e.u8(uint8(q.Kind))
	e.u16(q.Channel)
	e.f64(q.T0)
	e.f64(q.T1)
	e.u32(q.Arg)
	var flags uint8
	if q.Partial {
		flags |= 1
	}
	e.u8(flags)
	e.u32(q.TimeoutMillis)
	e.str(q.Scope.Class)
	e.u16(uint16(len(q.Scope.IDs)))
	for _, id := range q.Scope.IDs {
		e.u64(id)
	}
	// Trace context rides as a suffix, and only when set.
	appendTraceContext(&e, q.TraceID, q.TraceSampled)
	return e.b, nil
}

// DecodeFleetQuery parses a FleetQuery payload, mirroring DecodeQuery's
// malformed-range rejection (*RangeError) and the scope invariant.
func DecodeFleetQuery(p []byte) (FleetQuery, error) {
	d := buf{b: p}
	var q FleetQuery
	q.Kind = QueryKind(d.rdU8())
	q.Channel = d.rdU16()
	q.T0 = d.rdF64()
	q.T1 = d.rdF64()
	q.Arg = d.rdU32()
	flags := d.rdU8()
	q.Partial = flags&1 != 0
	q.TimeoutMillis = d.rdU32()
	q.Scope.Class = d.rdStr()
	n := int(d.rdU16())
	if d.err == nil && n*8 > len(p)-d.pos {
		d.fail() // refuse a hostile ID count before allocating for it
	}
	if d.err == nil && n > 0 {
		q.Scope.IDs = make([]uint64, n)
		for i := range q.Scope.IDs {
			q.Scope.IDs[i] = d.rdU64()
		}
	}
	q.TraceID, q.TraceSampled = readTraceContext(&d)
	if err := d.done(); err != nil {
		return FleetQuery{}, err
	}
	if err := checkRange(q.T0, q.T1); err != nil {
		return FleetQuery{}, err
	}
	if err := q.Scope.Validate(); err != nil {
		return FleetQuery{}, err
	}
	return q, nil
}

// Encoded sizes of a FleetResult: the fixed header up to and including
// the part count, one part, and one failure before its text. The failure
// count's two bytes sit between the parts and the failures.
const (
	fleetResultHeaderSize = 34
	fleetPartSize         = 52
	fleetFailureSize      = 12
)

// FleetPart is one session's contribution to a fleet result: the frame
// high-water mark it answered at (the consistency contract — the session
// kept ingesting, but its answer covers exactly Frames frames) and its
// mergeable partial. Exact kinds fill the moment fields (N samples, Σv,
// Σv² in decoded value units); approximate and progressive kinds fill Sum
// with the estimate and Bound with its guaranteed error bound.
type FleetPart struct {
	ID           uint64
	Frames       uint64
	N            float64
	Sum          float64
	SumSq        float64
	Bound        float64
	Coefficients uint32
}

// FleetFailure is one session's failure inside a fleet query.
type FleetFailure struct {
	ID   uint64
	Code Code
	Text string
}

// FleetResult is the merged answer to a FleetQuery. Sessions is how many
// sessions the scope matched when the query ran; Merged how many contributed
// to Value. Code is CodeOK for a full answer, CodePartial when Partial
// was set and some sessions failed (Failures has the detail), or an error
// code with OK=false. Bound is the summed per-session error bound of
// approximate/progressive kinds — the merged estimate's guarantee is the
// sum of the per-session guarantees.
type FleetResult struct {
	Kind         QueryKind
	OK           bool
	Code         Code
	Value        float64
	Bound        float64
	Coefficients uint32
	Sessions     uint32
	Merged       uint32
	Parts        []FleetPart
	Failures     []FleetFailure
}

// Encode serialises the FleetResult payload.
func (r FleetResult) Encode() ([]byte, error) {
	if len(r.Parts) > MaxFleetDetail || len(r.Failures) > MaxFleetDetail {
		return nil, fmt.Errorf("wire: fleet detail %d/%d exceeds max %d",
			len(r.Parts), len(r.Failures), MaxFleetDetail)
	}
	size := fleetResultHeaderSize + len(r.Parts)*fleetPartSize + 2
	for _, f := range r.Failures {
		size += fleetFailureSize + len(f.Text)
	}
	e := buf{b: make([]byte, 0, size)}
	e.u8(uint8(r.Kind))
	var flags uint8
	if r.OK {
		flags |= 1
	}
	e.u8(flags)
	e.u16(uint16(r.Code))
	e.f64(r.Value)
	e.f64(r.Bound)
	e.u32(r.Coefficients)
	e.u32(r.Sessions)
	e.u32(r.Merged)
	e.u16(uint16(len(r.Parts)))
	for _, p := range r.Parts {
		e.u64(p.ID)
		e.u64(p.Frames)
		e.f64(p.N)
		e.f64(p.Sum)
		e.f64(p.SumSq)
		e.f64(p.Bound)
		e.u32(p.Coefficients)
	}
	e.u16(uint16(len(r.Failures)))
	for _, f := range r.Failures {
		e.u64(f.ID)
		e.u16(uint16(f.Code))
		e.str(f.Text)
	}
	return e.b, nil
}

// DecodeFleetResult parses a FleetResult payload.
func DecodeFleetResult(p []byte) (FleetResult, error) {
	d := buf{b: p}
	var r FleetResult
	r.Kind = QueryKind(d.rdU8())
	flags := d.rdU8()
	r.OK = flags&1 != 0
	r.Code = Code(d.rdU16())
	r.Value = d.rdF64()
	r.Bound = d.rdF64()
	r.Coefficients = d.rdU32()
	r.Sessions = d.rdU32()
	r.Merged = d.rdU32()
	// Refuse a hostile count before allocating for it: every part, and
	// every failure, has a fixed minimum size.
	if n := int(d.rdU16()); d.err == nil && n*fleetPartSize > len(p)-d.pos {
		d.fail()
	} else if d.err == nil && n > 0 {
		r.Parts = make([]FleetPart, n)
		for i := range r.Parts {
			r.Parts[i] = FleetPart{
				ID:           d.rdU64(),
				Frames:       d.rdU64(),
				N:            d.rdF64(),
				Sum:          d.rdF64(),
				SumSq:        d.rdF64(),
				Bound:        d.rdF64(),
				Coefficients: d.rdU32(),
			}
		}
	}
	if n := int(d.rdU16()); d.err == nil && n*fleetFailureSize > len(p)-d.pos {
		d.fail()
	} else if d.err == nil && n > 0 {
		r.Failures = make([]FleetFailure, n)
		for i := range r.Failures {
			r.Failures[i] = FleetFailure{ID: d.rdU64(), Code: Code(d.rdU16()), Text: d.rdStr()}
		}
	}
	return r, d.done()
}
