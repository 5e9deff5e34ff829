package server

import (
	"bufio"
	"bytes"
	"math/rand"
	"testing"

	"aims/internal/core"
	"aims/internal/journal"
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

// ingestRig replays one batch message through a session's ingest path,
// journaled when j is set.
type ingestRig struct {
	q     batchQueue
	src   *bytes.Reader
	br    *bufio.Reader
	msg   []byte
	ls    *core.LiveStore
	j     *journal.Session
	group [][]byte
}

func newIngestRig(tb testing.TB) *ingestRig {
	r := &ingestRig{src: bytes.NewReader(nil), br: bufio.NewReaderSize(nil, connBufferSize)}
	r.msg, r.ls = gloveBatch(tb)
	r.q.init(8192, false, obs.NewRegistry().Gauge("depth", ""), new(payloadPool))
	return r
}

// ingest is the session's per-batch work, socket to cube, as the reader
// (handleBatch) and the appender (storeBatch) do it: read the message into
// a pooled payload buffer, check the batch, bin its frames straight out of
// the payload into a pooled bins buffer and hand the payload back, journal
// the bins record when the rig is durable, store it, hand its buffer back.
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
	recPB := r.q.get(r.ls.Binner().BinsBytes(n))
	rec, _ := r.ls.Bin(frames, (*recPB)[:0])
	r.q.recycle(pb)
	if r.j != nil {
		r.group[0] = rec
		r.j.AppendGroup(r.group, nil)
	}
	if stored, err := r.ls.AppendBins(rec); err != nil || stored != n {
		tb.Fatalf("stored %d of %d frames: %v", stored, n, err)
	}
	r.q.recycle(recPB)
}

// newDurableIngestRig is newIngestRig journaling into a session of its own
// under a temporary data directory, at the server's default segment size
// and with periodic snapshots off, so the steady state is bin, WAL append
// (write and fsync), store.
func newDurableIngestRig(tb testing.TB) *ingestRig {
	r := newIngestRig(tb)
	m, err := journal.OpenManager(journal.Config{Dir: tb.TempDir(), SnapshotFrames: -1})
	if err != nil {
		tb.Fatal(err)
	}
	mins, maxs := ranges(r.ls.Channels())
	eff := r.ls.Config()
	r.j, _, err = m.Attach(journal.Meta{
		Name: "glove", Rate: eff.Rate, HorizonTicks: eff.HorizonTicks,
		TimeBuckets: eff.TimeBuckets, ValueBins: eff.ValueBins, Mins: mins, Maxs: maxs,
	})
	if err != nil {
		tb.Fatal(err)
	}
	r.group = make([][]byte, 1)
	tb.Cleanup(func() { r.j.Close(nil) })
	return r
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
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers at random; CI pins this without it")
	}
	r := newIngestRig(t)
	r.ingest(t) // the first read allocates the buffer the rest reuse
	if allocs := testing.AllocsPerRun(100, func() { r.ingest(t) }); allocs != 0 {
		t.Fatalf("%v allocations per batch, want 0", allocs)
	}
	if taken, returned := r.q.taken.Load(), r.q.returned.Load(); taken != returned {
		t.Fatalf("%d payload buffers taken and %d returned, want every one back once", taken, returned)
	}
}

// BenchmarkDurableIngestBatch prices one glove batch on the durable path,
// socket bytes to cube cells with a WAL record and an fsync between: the
// per-batch cost of an appender that finds one batch a turn.
func BenchmarkDurableIngestBatch(b *testing.B) {
	r := newDurableIngestRig(b)
	b.SetBytes(int64(len(r.msg)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.ingest(b)
	}
}

// TestDurableIngestAllocatesNothing pins the durable path's steady state —
// bin, WAL append and fsync, store — at zero allocations per batch too:
// the bins record is drawn from the payload pool and the WAL frames it in
// its reused write buffer. 100 glove batches stay inside one 8 MiB segment,
// so no rotation runs.
func TestDurableIngestAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers at random; CI pins this without it")
	}
	r := newDurableIngestRig(t)
	r.ingest(t) // the first batch sizes the buffers the rest reuse
	if allocs := testing.AllocsPerRun(100, func() { r.ingest(t) }); allocs != 0 {
		t.Fatalf("%v allocations per durable batch, want 0", allocs)
	}
	if got, want := r.j.Processed(), uint64(102*256); got != want { // AllocsPerRun warms up with one more
		t.Fatalf("journal processed %d frames, want %d", got, want)
	}
}
