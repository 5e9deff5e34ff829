package wire

// Trace context is an optional suffix on Query and FleetQuery, omitted
// when unset — the one way a frozen message may grow (see Version). These
// tests pin that layout against hand-built fixed-field payloads: the
// context round-trips, a payload without the suffix decodes with zero
// context, and an untraced encoding is byte-identical to the fixed fields.

import (
	"bytes"
	"reflect"
	"testing"
)

// encodeQueryV2 hand-builds the 23-byte v2 Query payload, independent of
// Query.Encode, so the tests pin the actual v2 byte layout.
func encodeQueryV2(q Query) []byte {
	var e buf
	e.u8(uint8(q.Kind))
	e.u16(q.Channel)
	e.f64(q.T0)
	e.f64(q.T1)
	e.u32(q.Arg)
	return e.b
}

func TestQueryTraceContextRoundTrip(t *testing.T) {
	q := Query{
		Kind: QueryApproxCount, Channel: 3, T0: 0.5, T1: 9, Arg: 64,
		TraceID: 0xDEADBEEFCAFEF00D, TraceSampled: true,
	}
	got, err := DecodeQuery(q.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got != q {
		t.Fatalf("v3 round trip dropped context: %+v != %+v", got, q)
	}
	// Unsampled context (trace ID without the force bit) survives too.
	q.TraceSampled = false
	if got, err := DecodeQuery(q.Encode()); err != nil || got != q {
		t.Fatalf("unsampled context: %+v %v", got, err)
	}
}

func TestQueryWithoutTraceIsByteIdenticalToV2(t *testing.T) {
	q := Query{Kind: QueryCount, Channel: 7, T0: 1, T1: 2, Arg: 5}
	v3 := q.Encode()
	v2 := encodeQueryV2(q)
	if !bytes.Equal(v3, v2) {
		t.Fatalf("untraced v3 encoding (%d bytes) differs from v2 (%d bytes):\n%x\n%x",
			len(v3), len(v2), v3, v2)
	}
	// This byte-identity is exactly what lets a v2 server — which rejects
	// trailing bytes — accept a v3 client that is not tracing. Conversely a
	// traced payload must carry the 9-byte suffix.
	traced := Query{Kind: QueryCount, Channel: 7, T0: 1, T1: 2, Arg: 5, TraceID: 1}
	if got := len(traced.Encode()); got != len(v2)+9 {
		t.Fatalf("traced payload is %d bytes, want v2 %d + 9-byte suffix", got, len(v2))
	}
}

func TestV3ServerDecodesV2QueryPayload(t *testing.T) {
	want := Query{Kind: QueryProgressiveCount, Channel: 2, T0: 0, T1: 4.5, Arg: 10}
	got, err := DecodeQuery(encodeQueryV2(want))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("v2 payload decoded as %+v, want %+v", got, want)
	}
	if got.TraceID != 0 || got.TraceSampled {
		t.Fatalf("v2 payload grew trace context: %+v", got)
	}
}

func TestQueryTraceSuffixTruncationRejected(t *testing.T) {
	q := Query{Kind: QueryCount, Channel: 1, T0: 0, T1: 1, TraceID: 42, TraceSampled: true}
	p := q.Encode()
	// Any cut through the suffix (a partial trace context) must fail, not
	// silently decode as an untraced v2 payload.
	for cut := len(p) - 9 + 1; cut < len(p); cut++ {
		if _, err := DecodeQuery(p[:cut]); err == nil {
			t.Fatalf("accepted query with trace suffix truncated to %d bytes", cut)
		}
	}
	if _, err := DecodeQuery(append(p, 0)); err == nil {
		t.Fatal("trailing bytes after trace context accepted")
	}
}

func TestFleetQueryTraceContextRoundTrip(t *testing.T) {
	fq := FleetQuery{
		Query: Query{
			Kind: QueryAverage, Channel: 1, T0: 0, T1: 10,
			TraceID: 0xABCD, TraceSampled: true,
		},
		Scope:         FleetScope{Class: "cyberglove"},
		Partial:       true,
		TimeoutMillis: 250,
	}
	p, err := fq.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeFleetQuery(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, fq) {
		t.Fatalf("fleet round trip: %+v != %+v", got, fq)
	}
}

func TestFleetQueryWithoutTraceIsByteIdenticalToV2(t *testing.T) {
	fq := FleetQuery{
		Query: Query{Kind: QueryCount, Channel: 0, T0: 0, T1: 5},
		Scope: FleetScope{IDs: []uint64{3, 9}},
	}
	p, err := fq.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// The v2 layout ends at the session-ID list; an untraced v3 encoding
	// adds nothing, so a traced one is exactly 9 bytes longer.
	traced := fq
	traced.TraceID = 7
	tp, err := traced.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if len(tp) != len(p)+9 {
		t.Fatalf("traced fleet payload %d bytes, want untraced %d + 9", len(tp), len(p))
	}
	if !bytes.Equal(tp[:len(p)], p) {
		t.Fatal("trace context not a strict suffix of the v2 fleet payload")
	}
	// A v3 server decoding the v2 payload sees zero context.
	got, err := DecodeFleetQuery(p)
	if err != nil {
		t.Fatal(err)
	}
	if got.TraceID != 0 || got.TraceSampled {
		t.Fatalf("v2 fleet payload grew trace context: %+v", got)
	}
}

func TestNewTraceIDNonZero(t *testing.T) {
	for i := 0; i < 100; i++ {
		if NewTraceID() == 0 {
			t.Fatal("NewTraceID returned 0")
		}
	}
}
