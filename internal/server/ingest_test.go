package server

import (
	"bufio"
	"bytes"
	"math/rand"
	"testing"

	"aims/internal/core"
	"aims/internal/obs"
	"aims/internal/stream"
	"aims/internal/wire"
)

// gloveBatch is one framed 256-frame × 28-channel batch message — the
// CyberGlove acquisition batch of the capacity benchmark — and a live store
// of the matching shape at the server's default store dimensions.
func gloveBatch(tb testing.TB) (msg []byte, ls *core.LiveStore) {
	const frames, channels = 256, 28
	rng := rand.New(rand.NewSource(1))
	batch := make([]stream.Frame, frames)
	for i := range batch {
		batch[i].T = float64(i) / 100
		batch[i].Values = make([]float64, channels)
		for c := range batch[i].Values {
			batch[i].Values[c] = rng.Float64()*12 - 6 // a little past the ±5 range
		}
	}
	p, err := wire.EncodeBatch(0, batch, channels)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := wire.WriteMessage(&buf, wire.MsgBatch, p); err != nil {
		tb.Fatal(err)
	}
	mins, maxs := ranges(channels)
	ls, err = core.NewLiveStore(mins, maxs, core.LiveStoreConfig{Rate: 100})
	if err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes(), ls
}

// ingestRig replays one batch message through a session's ingest path.
type ingestRig struct {
	q   batchQueue
	src *bytes.Reader
	br  *bufio.Reader
	msg []byte
	ls  *core.LiveStore
}

func newIngestRig(tb testing.TB) *ingestRig {
	r := &ingestRig{src: bytes.NewReader(nil), br: bufio.NewReaderSize(nil, connBufferSize)}
	r.msg, r.ls = gloveBatch(tb)
	r.q.init(8192, false, obs.NewRegistry().Gauge("depth", ""), new(payloadPool))
	return r
}

// ingest is the session's per-batch work, socket to cube: read the message
// into a pooled payload buffer, check the batch, quantise its frames
// straight into the store, hand the buffer back.
func (r *ingestRig) ingest(tb testing.TB) {
	r.src.Reset(r.msg)
	r.br.Reset(r.src)
	_, payload, pb, err := r.q.read(r.br)
	if err != nil {
		tb.Fatal(err)
	}
	_, n, frames, err := wire.CheckBatch(payload, r.ls.Channels())
	if err != nil {
		tb.Fatal(err)
	}
	if stored, err := r.ls.AppendEncoded(frames); err != nil || stored != n {
		tb.Fatalf("stored %d of %d frames: %v", stored, n, err)
	}
	r.q.release(0, pb)
}

// BenchmarkIngestBatchBytesToCube prices one glove batch from socket bytes
// to cube cells on the path a session's reader and appender share.
func BenchmarkIngestBatchBytesToCube(b *testing.B) {
	r := newIngestRig(b)
	b.SetBytes(int64(len(r.msg)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.ingest(b)
	}
}

// TestIngestBatchBytesToCubeAllocatesNothing pins the steady state of that
// path at zero allocations per batch: the payload buffer is pooled (and
// goes back as the *[]byte it came out as, so no slice header is boxed),
// the batch is checked rather than decoded, and the store quantises out of
// the bytes.
func TestIngestBatchBytesToCubeAllocatesNothing(t *testing.T) {
	r := newIngestRig(t)
	r.ingest(t) // the first read allocates the buffer the rest reuse
	if allocs := testing.AllocsPerRun(100, func() { r.ingest(t) }); allocs != 0 {
		t.Fatalf("%v allocations per batch, want 0", allocs)
	}
	if taken, returned := r.q.taken.Load(), r.q.returned.Load(); taken != returned {
		t.Fatalf("%d payload buffers taken and %d returned, want every one back once", taken, returned)
	}
}
