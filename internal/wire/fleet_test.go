package wire

import (
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"
)

// TestHelloRefusesRetiredVersions hand-encodes Hellos at the retired
// protocol versions, each in the layout its clients sent (v1 ended at the
// channel ranges, v2 and v3 appended the device class), and checks the
// frozen decoder refuses every one.
func TestHelloRefusesRetiredVersions(t *testing.T) {
	for v := uint8(1); v < Version; v++ {
		var e buf
		e.u32(Magic)
		e.u8(v)
		e.f64(250)
		e.u32(500)
		e.str("legacy glove")
		e.u16(2)
		for _, r := range [][2]float64{{-1, 1}, {0, 9}} {
			e.f64(r[0])
			e.f64(r[1])
		}
		if v >= 2 {
			e.str("cyberglove")
		}
		if _, err := DecodeHello(e.b); err == nil {
			t.Errorf("v%d hello accepted", v)
		}
	}
}

func TestHelloV2CarriesClass(t *testing.T) {
	h := Hello{Rate: 100, Name: "g7", Class: "cyberglove", Mins: []float64{0}, Maxs: []float64{1}}
	p, err := h.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeHello(p)
	if err != nil {
		t.Fatal(err)
	}
	if got.Class != "cyberglove" {
		t.Fatalf("class %q", got.Class)
	}
}

func TestDecodeQueryRejectsMalformedRanges(t *testing.T) {
	cases := []struct{ t0, t1 float64 }{
		{math.NaN(), 1},
		{0, math.NaN()},
		{math.Inf(-1), 1},
		{0, math.Inf(1)},
		{5, 1}, // inverted
	}
	for _, c := range cases {
		p := Query{Kind: QueryCount, T0: c.t0, T1: c.t1}.Encode()
		_, err := DecodeQuery(p)
		if err == nil {
			t.Fatalf("range [%v,%v] accepted", c.t0, c.t1)
		}
		var re *RangeError
		if !errors.As(err, &re) {
			t.Fatalf("range [%v,%v]: error %v is not a *RangeError", c.t0, c.t1, err)
		}
	}
	// A point range (T0 == T1) is legal.
	if _, err := DecodeQuery(Query{Kind: QueryCount, T0: 2, T1: 2}.Encode()); err != nil {
		t.Fatalf("point range rejected: %v", err)
	}
}

func TestFleetQueryRoundTrip(t *testing.T) {
	byClass := FleetQuery{
		Query:         Query{Kind: QueryAverage, Channel: 3, T0: 1.5, T1: 20, Arg: 7},
		Scope:         FleetScope{Class: "cyberglove"},
		Partial:       true,
		TimeoutMillis: 1500,
	}
	p, err := byClass.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeFleetQuery(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, byClass) {
		t.Fatalf("round trip: %+v != %+v", got, byClass)
	}

	byIDs := FleetQuery{
		Query: Query{Kind: QueryCount, T0: 0, T1: 4},
		Scope: FleetScope{IDs: []uint64{9, 2, 1 << 40}},
	}
	p, err = byIDs.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err = DecodeFleetQuery(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, byIDs) {
		t.Fatalf("round trip: %+v != %+v", got, byIDs)
	}

	for cut := 0; cut < len(p); cut++ {
		if _, err := DecodeFleetQuery(p[:cut]); err == nil {
			t.Fatalf("accepted fleet query truncated to %d bytes", cut)
		}
	}
}

func TestFleetQueryValidation(t *testing.T) {
	// Both selectors, or neither, is malformed.
	if _, err := (FleetQuery{Query: Query{T1: 1}}).Encode(); err == nil {
		t.Fatal("empty scope accepted")
	}
	both := FleetQuery{Query: Query{T1: 1}, Scope: FleetScope{Class: "c", IDs: []uint64{1}}}
	if _, err := both.Encode(); err == nil {
		t.Fatal("double scope accepted")
	}
	// Malformed ranges are rejected with the same typed error as DecodeQuery.
	bad := FleetQuery{Query: Query{T0: 3, T1: 1}, Scope: FleetScope{Class: "c"}}
	if _, err := bad.Encode(); err == nil {
		t.Fatal("inverted range accepted at encode")
	}
	// And at decode, for payloads built by other implementations.
	ok := FleetQuery{Query: Query{T0: 0, T1: 1}, Scope: FleetScope{Class: "c"}}
	p, err := ok.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// Patch T1 (offset: kind 1 + channel 2 + t0 8) to NaN.
	copy(p[11:19], nanBytes())
	_, err = DecodeFleetQuery(p)
	var re *RangeError
	if !errors.As(err, &re) {
		t.Fatalf("NaN endpoint: error %v is not a *RangeError", err)
	}
	// A hostile ID count is refused before the decoder allocates for it.
	ids := FleetQuery{Query: Query{T1: 1}, Scope: FleetScope{IDs: []uint64{1}}}
	if p, err = ids.Encode(); err != nil {
		t.Fatal(err)
	}
	p[len(p)-10], p[len(p)-9] = 0xFF, 0xFF // claim 65535 IDs, carry one
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = DecodeFleetQuery(p)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("ID count past the payload end accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 8*MaxFleetIDs {
		t.Fatalf("decoding a 65535-ID claim allocated %d bytes", grew)
	}
}

func nanBytes() []byte {
	var e buf
	e.f64(math.NaN())
	return e.b
}

func TestFleetResultRoundTrip(t *testing.T) {
	r := FleetResult{
		Kind:         QueryApproxCount,
		OK:           true,
		Code:         CodePartial,
		Value:        123.5,
		Bound:        4.25,
		Coefficients: 96,
		Sessions:     5,
		Merged:       3,
		Parts: []FleetPart{
			{ID: 1, Frames: 1000, N: 1000, Sum: 41.5, SumSq: 17, Bound: 1.5, Coefficients: 32},
			{ID: 4, Frames: 2000, N: 2000, Sum: 82, SumSq: 34, Bound: 2.75, Coefficients: 64},
		},
		Failures: []FleetFailure{
			{ID: 2, Code: CodeDeadline, Text: "scan missed the 50ms deadline"},
			{ID: 3, Code: CodeBadQuery, Text: "channel 3 out of [0,2)"},
		},
	}
	p, err := r.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeFleetResult(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, r) {
		t.Fatalf("round trip:\n%+v\n!=\n%+v", got, r)
	}
	for cut := 0; cut < len(p); cut++ {
		if _, err := DecodeFleetResult(p[:cut]); err == nil {
			t.Fatalf("accepted fleet result truncated to %d bytes", cut)
		}
	}
}

// TestFleetResultEncodeOneAllocation: Encode sizes its buffer once, so a
// 96-part result (a class-wide fleet answer) costs one allocation, and the
// buffer is exactly the payload.
func TestFleetResultEncodeOneAllocation(t *testing.T) {
	r := FleetResult{Kind: QueryAverage, OK: true, Code: CodePartial, Sessions: 97, Merged: 96}
	for i := 0; i < 96; i++ {
		r.Parts = append(r.Parts, FleetPart{ID: uint64(i + 1), Frames: 2048, N: 512, Sum: 1.5, SumSq: 9})
	}
	r.Failures = []FleetFailure{{ID: 97, Code: CodeDeadline, Text: "scan unfinished at fleet deadline"}}
	p, err := r.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != cap(p) {
		t.Fatalf("a %d-byte payload in a %d-byte buffer, want it sized exactly", len(p), cap(p))
	}
	if allocs := testing.AllocsPerRun(50, func() { r.Encode() }); allocs != 1 {
		t.Fatalf("Encode made %v allocations, want 1", allocs)
	}
}

// TestDecodeFleetResultRefusesHostileCount: a short payload whose header
// announces 65535 parts (or failures) is refused before anything is
// allocated for them — a client must not be made to allocate megabytes by
// a 40-byte message.
func TestDecodeFleetResultRefusesHostileCount(t *testing.T) {
	empty, err := FleetResult{Kind: QueryCount, Code: CodeNoSessions}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	hostileParts := append(slices.Clone(empty), 0, 0, 0, 0) // 40 bytes
	binary.LittleEndian.PutUint16(hostileParts[fleetResultHeaderSize-2:], 65535)
	hostileFailures := append(slices.Clone(empty), 0, 0, 0, 0)
	binary.LittleEndian.PutUint16(hostileFailures[fleetResultHeaderSize:], 65535)
	for name, p := range map[string][]byte{"parts": hostileParts, "failures": hostileFailures} {
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := DecodeFleetResult(p); err == nil {
				t.Fatalf("%s: a %d-byte payload announcing 65535 entries was accepted", name, len(p))
			}
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 1024 {
			t.Fatalf("%s: refusing a hostile count allocated %d B, want under 1 KiB", name, per)
		}
	}
}
