package wire

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"aims/internal/stream"
)

func TestMessageFraming(t *testing.T) {
	var b bytes.Buffer
	payloads := [][]byte{nil, {1}, bytes.Repeat([]byte{0xAB}, 1000)}
	for i, p := range payloads {
		if err := WriteMessage(&b, byte(i+1), p); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	for i, p := range payloads {
		typ, got, err := ReadMessage(&b)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if typ != byte(i+1) || !bytes.Equal(got, p) {
			t.Fatalf("message %d mismatched: type=%d len=%d", i, typ, len(got))
		}
	}
}

func TestMessageFramingRejectsOversize(t *testing.T) {
	var b bytes.Buffer
	if err := WriteMessage(&b, 1, make([]byte, MaxPayload+1)); err == nil {
		t.Fatal("oversize write accepted")
	}
	// A hostile length prefix must be rejected before allocation.
	b.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1})
	if _, _, err := ReadMessage(&b); err == nil {
		t.Fatal("oversize read accepted")
	}
}

func TestHelloRoundTrip(t *testing.T) {
	h := Hello{
		Rate:         100,
		HorizonTicks: 12345,
		Name:         "glove-7",
		Mins:         []float64{-1, 0, 2.5},
		Maxs:         []float64{1, 10, 3.5},
	}
	p, err := h.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeHello(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(h, got) {
		t.Fatalf("round trip: %+v != %+v", got, h)
	}
}

func TestHelloRejectsBadMagicAndVersion(t *testing.T) {
	h := Hello{Rate: 100, Mins: []float64{0}, Maxs: []float64{1}}
	p, _ := h.Encode()
	p[0] ^= 0xFF
	if _, err := DecodeHello(p); err == nil {
		t.Fatal("bad magic accepted")
	}
	p[0] ^= 0xFF
	p[4] = Version + 1
	if _, err := DecodeHello(p); err == nil {
		t.Fatal("bad version accepted")
	}
}

func TestHelloValidation(t *testing.T) {
	if _, err := (Hello{Rate: 100, Mins: []float64{0}, Maxs: nil}).Encode(); err == nil {
		t.Fatal("mismatched ranges accepted")
	}
	if _, err := (Hello{Rate: 100}).Encode(); err == nil {
		t.Fatal("zero channels accepted")
	}
	p, _ := Hello{Rate: -1, Mins: []float64{0}, Maxs: []float64{1}}.Encode()
	if _, err := DecodeHello(p); err == nil {
		t.Fatal("non-positive rate accepted")
	}
}

func TestBatchRoundTrip(t *testing.T) {
	frames := []stream.Frame{
		{T: 0, Values: []float64{1, 2}},
		{T: 0.01, Values: []float64{3, math.Pi}},
		{T: 0.02, Values: []float64{-1, 1e-9}},
	}
	p, err := EncodeBatch(42, frames, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DecodeBatch(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if b.Seq != 42 || !reflect.DeepEqual(b.Frames, frames) {
		t.Fatalf("round trip: %+v", b)
	}
	if _, err := DecodeBatch(p, 3); err == nil {
		t.Fatal("width mismatch accepted")
	}
	if _, err := DecodeBatch(p[:len(p)-1], 2); err == nil {
		t.Fatal("truncated batch accepted")
	}
}

func TestBatchRejectsRaggedFrames(t *testing.T) {
	frames := []stream.Frame{{T: 0, Values: []float64{1}}, {T: 1, Values: []float64{1, 2}}}
	if _, err := EncodeBatch(1, frames, 1); err == nil {
		t.Fatal("ragged frame accepted")
	}
}

func TestSmallMessageRoundTrips(t *testing.T) {
	a := BatchAck{Seq: 9, Code: CodeShed, Stored: 128}
	if got, err := DecodeBatchAck(a.Encode()); err != nil || got != a {
		t.Fatalf("batch ack: %+v %v", got, err)
	}
	w := Welcome{SessionID: 77, Code: CodeOK}
	if got, err := DecodeWelcome(w.Encode()); err != nil || got != w {
		t.Fatalf("welcome: %+v %v", got, err)
	}
	q := Query{Kind: QueryApproxCount, Channel: 12, T0: 1.5, T1: 9.25, Arg: 64}
	if got, err := DecodeQuery(q.Encode()); err != nil || got != q {
		t.Fatalf("query: %+v %v", got, err)
	}
	r := Result{Kind: QueryProgressiveCount, Final: true, OK: true, Code: CodeOK, Value: 3.5, Bound: 0.25, Coefficients: 17}
	if got, err := DecodeResult(r.Encode()); err != nil || got != r {
		t.Fatalf("result: %+v %v", got, err)
	}
	c := CloseAck{Stored: 1 << 40, Shed: 3}
	if got, err := DecodeCloseAck(c.Encode()); err != nil || got != c {
		t.Fatalf("close ack: %+v %v", got, err)
	}
	f := FlushAck{Stored: 999}
	if got, err := DecodeFlushAck(f.Encode()); err != nil || got != f {
		t.Fatalf("flush ack: %+v %v", got, err)
	}
	e := ErrMsg{Code: CodeIdleEvicted, Text: "session idle"}
	if got, err := DecodeErr(e.Encode()); err != nil || got != e {
		t.Fatalf("err msg: %+v %v", got, err)
	}
}

func TestTruncatedPayloadsRejected(t *testing.T) {
	q := Query{Kind: QueryCount, Channel: 1, T0: 0, T1: 1}
	p := q.Encode()
	for cut := 0; cut < len(p); cut++ {
		if _, err := DecodeQuery(p[:cut]); err == nil {
			t.Fatalf("accepted query truncated to %d bytes", cut)
		}
	}
	if _, err := DecodeQuery(append(p, 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}
