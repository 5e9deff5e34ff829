package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"testing"

	"aims/internal/stream"
)

// cursorDecodeBatch is an independent batch decoder — field by field
// through the cursor every other message uses — that the fuzz target holds
// CheckBatch and DecodeBatch to.
func cursorDecodeBatch(p []byte, width int) (Batch, error) {
	d := buf{b: p}
	var b Batch
	b.Seq = d.rdU64()
	count := int(d.rdU32())
	w := int(d.rdU16())
	if d.err == nil && width >= 0 && w != width {
		return Batch{}, fmt.Errorf("wire: batch width %d != registered %d", w, width)
	}
	if d.err == nil && count*(w+1)*8 != len(p)-d.pos {
		return Batch{}, fmt.Errorf("wire: batch size %d != %d frames × width %d", len(p)-d.pos, count, w)
	}
	if d.err == nil {
		b.Frames = make([]stream.Frame, count)
		for i := range b.Frames {
			b.Frames[i].T = d.rdF64()
			b.Frames[i].Values = make([]float64, w)
			for j := range b.Frames[i].Values {
				b.Frames[i].Values[j] = d.rdF64()
			}
		}
	}
	if err := d.done(); err != nil {
		return Batch{}, err
	}
	return b, nil
}

// sameFrames compares frames bit for bit (NaN payloads included).
func sameFrames(a, b []stream.Frame) bool {
	if len(a) != len(b) {
		return false
	}
	bits := math.Float64bits
	for i := range a {
		if bits(a[i].T) != bits(b[i].T) || len(a[i].Values) != len(b[i].Values) {
			return false
		}
		for j := range a[i].Values {
			if bits(a[i].Values[j]) != bits(b[i].Values[j]) {
				return false
			}
		}
	}
	return true
}

// FuzzCheckBatch: for any payload and registered width, CheckBatch,
// DecodeBatch and a field-by-field decoder accept or refuse together, with
// the same error; when they accept, the checked bytes are the frames
// DecodeBatch returns, and re-framing them rebuilds the payload exactly.
// The checked-in corpus (testdata/fuzz/FuzzCheckBatch) seeds valid,
// truncated, wrong-width and trailing-byte payloads.
func FuzzCheckBatch(f *testing.F) {
	f.Fuzz(func(t *testing.T, p []byte, width int) {
		seq, count, frames, cerr := CheckBatch(p, width)
		b, derr := DecodeBatch(p, width)
		ref, rerr := cursorDecodeBatch(p, width)
		if fmt.Sprint(cerr) != fmt.Sprint(derr) || fmt.Sprint(derr) != fmt.Sprint(rerr) {
			t.Fatalf("verdicts differ: CheckBatch %v, DecodeBatch %v, cursor decoder %v", cerr, derr, rerr)
		}
		if cerr != nil {
			return
		}
		if seq != b.Seq || count != len(b.Frames) || !sameFrames(b.Frames, ref.Frames) || b.Seq != ref.Seq {
			t.Fatalf("seq %d count %d: DecodeBatch seq %d, %d frames; cursor decoder seq %d, %d frames",
				seq, count, b.Seq, len(b.Frames), ref.Seq, len(ref.Frames))
		}
		w := int(binary.LittleEndian.Uint16(p[12:]))
		if len(frames) != count*FrameSize(w) {
			t.Fatalf("%d checked bytes for %d frames of width %d", len(frames), count, w)
		}
		for i, fr := range b.Frames {
			rec := frames[i*FrameSize(w):]
			if math.Float64bits(fr.T) != binary.LittleEndian.Uint64(rec) {
				t.Fatalf("frame %d: checked bytes carry another timestamp", i)
			}
			for j, v := range fr.Values {
				if math.Float64bits(v) != binary.LittleEndian.Uint64(rec[8+8*j:]) {
					t.Fatalf("frame %d value %d: checked bytes carry another value", i, j)
				}
			}
		}
		if again := AppendBatchBytes(nil, seq, w, frames); !bytes.Equal(again, p) {
			t.Fatalf("re-framing the checked bytes gives %d bytes, the payload has %d", len(again), len(p))
		}
	})
}

// FuzzDecodeQuery: no payload panics DecodeQuery, and an accepted one
// re-encodes to bytes that decode to the same Query. The checked-in corpus
// (testdata/fuzz/FuzzDecodeQuery) seeds the fixed-field payload and the
// sampled and unsampled trace-context suffixes.
func FuzzDecodeQuery(f *testing.F) {
	f.Fuzz(func(t *testing.T, p []byte) {
		q, err := DecodeQuery(p)
		if err != nil {
			return
		}
		again, err := DecodeQuery(q.Encode())
		if err != nil {
			t.Fatalf("re-encoded %+v refused: %v", q, err)
		}
		if again != q {
			t.Fatalf("re-encoding %+v decodes as %+v", q, again)
		}
	})
}

// FuzzDecodeFleetQuery: no payload panics DecodeFleetQuery, and an
// accepted one re-encodes to bytes that decode to an equal FleetQuery.
// The checked-in corpus (testdata/fuzz/FuzzDecodeFleetQuery) seeds class
// and ID scopes with and without the trace-context suffix.
func FuzzDecodeFleetQuery(f *testing.F) {
	f.Fuzz(func(t *testing.T, p []byte) {
		fq, err := DecodeFleetQuery(p)
		if err != nil {
			return
		}
		enc, err := fq.Encode()
		if err != nil {
			t.Fatalf("accepted %+v does not encode: %v", fq, err)
		}
		again, err := DecodeFleetQuery(enc)
		if err != nil {
			t.Fatalf("re-encoded %+v refused: %v", fq, err)
		}
		if !reflect.DeepEqual(again, fq) {
			t.Fatalf("re-encoding %+v decodes as %+v", fq, again)
		}
	})
}

// FuzzDecodeFleetResult: no payload panics DecodeFleetResult, and an
// accepted one re-encodes to the bytes it was decoded from, but for the
// flag bits the decoder ignores (every other field is fixed-width or
// length-prefixed, so that is the whole result, NaN payloads included).
// The checked-in corpus (testdata/fuzz/FuzzDecodeFleetResult) seeds exact,
// approximate, partial, empty and non-finite answers, unused flag bits and
// hostile part and failure counts.
func FuzzDecodeFleetResult(f *testing.F) {
	f.Fuzz(func(t *testing.T, p []byte) {
		r, err := DecodeFleetResult(p)
		if err != nil {
			return
		}
		enc, err := r.Encode()
		if err != nil {
			t.Fatalf("accepted %+v does not encode: %v", r, err)
		}
		want := bytes.Clone(p)
		want[1] &= 1 // the OK flag; the decoder ignores the other bits
		if !bytes.Equal(enc, want) {
			t.Fatalf("re-encoding %+v gives bytes that differ from the %d decoded", r, len(p))
		}
	})
}
