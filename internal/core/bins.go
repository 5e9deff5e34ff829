package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"aims/internal/compress"
	"aims/internal/stream"
)

// A bins record is a batch of frames in the form a live store keeps them:
// each frame's time bucket and, per channel, its value bin — binned once,
// stored any number of times. The middle tier journals a batch as its bins
// record and stores it from the same bytes, and recovery replays the record
// through the same AppendBins, so a replayed frame lands in the cells it was
// first stored in without redoing any float arithmetic.
//
// A record is, little-endian:
//
//	frames u32                  frames the record covers, stored or skipped
//	{ bucket u32 | n u32 }…     runs of n ≥ 1 consecutive frames in one time
//	                            bucket, in frame order, summing to frames;
//	                            bucket skipBucket marks n skipped frames (a
//	                            negative tick, a timestamp that is not
//	                            finite, or a wrong width), and
//	                            neighbouring runs differ in bucket
//	cells                       one per stored frame and channel, frame by
//	                            frame: u8 when ValueBins ≤ 256, else u16
//
// Everything else — channels, TimeBuckets, ValueBins — is the store's shape.
// The encoding is canonical: CheckBins refuses any record Bin would not
// have written, so a record that checks re-encodes to the same bytes.

// skipBucket is the run bucket of skipped frames.
const skipBucket = math.MaxUint32

// maxBinsFrames bounds a record's frame count: no wire batch holds more
// frames (wire.MaxPayload over the smallest frame record), so a larger count
// is corruption, refused before it is used.
const maxBinsFrames = 1 << 20

// Binner bins frames as a live store of its quantisers and shape stores
// them. Its bin table holds, per channel, the quantiser's Min, Max−Min and
// top level, and its inlined bin method is compress.Quantize's arithmetic,
// so a value costs one subtract, divide, multiply and add-and-truncate and
// never a call. A Binner is never written after it is built, so any number
// of goroutines may bin through it while its store is locked by an append.
type Binner struct {
	rows        []binRow
	rate        float64
	tpb         int
	timeBuckets int
	horizon     float64 // tpb·timeBuckets: the first tick past the last bucket
	valueBins   int
}

// NewBinner returns the Binner of the store NewLiveStore(mins, maxs, cfg)
// would build: it bins every frame into the bucket and cells that store
// would count it in.
func NewBinner(mins, maxs []float64, cfg LiveStoreConfig) (*Binner, error) {
	quant, cfg, err := liveQuantizers(mins, maxs, cfg)
	if err != nil {
		return nil, err
	}
	b, err := newBinner(quant, cfg)
	if err != nil {
		return nil, err
	}
	return &b, nil
}

// newBinner builds the bin table of quant for a store shaped by cfg, whose
// defaults are applied. Every quantiser must have cfg.ValueBins levels.
func newBinner(quant []compress.Quantizer, cfg LiveStoreConfig) (Binner, error) {
	rows := make([]binRow, len(quant))
	for c, q := range quant {
		if q.Levels() != cfg.ValueBins {
			return Binner{}, fmt.Errorf("core: channel %d quantises to %d levels, not %d value bins", c, q.Levels(), cfg.ValueBins)
		}
		rows[c] = binRow{min: q.Min, span: q.Max - q.Min, top: float64(q.Levels() - 1)}
	}
	tpb := ticksPerBucket(cfg)
	return Binner{
		rows:        rows,
		rate:        cfg.Rate,
		tpb:         tpb,
		timeBuckets: cfg.TimeBuckets,
		horizon:     float64(tpb * cfg.TimeBuckets),
		valueBins:   cfg.ValueBins,
	}, nil
}

// ticksPerBucket returns the time-bucket width in device ticks of a store
// shaped by cfg.
func ticksPerBucket(cfg LiveStoreConfig) int {
	return max((cfg.HorizonTicks+cfg.TimeBuckets-1)/cfg.TimeBuckets, 1)
}

// Channels returns the channel count.
func (b *Binner) Channels() int { return len(b.rows) }

// binRow is one channel's row of the bin table: its quantiser's Min,
// Max−Min and top level Levels()−1, taken once at construction.
type binRow struct {
	min, span, top float64
}

// bin returns v's value bin: compress.Quantize's arithmetic, in the same
// order, on the precomputed row, so every bin equals Quantize's. It is
// small enough to inline into the binning loops.
func (r *binRow) bin(v float64) int {
	return compress.Level((v-r.min)/r.span*r.top, r.top)
}

// wide reports whether a cell takes two bytes.
func (b *Binner) wide() bool { return b.valueBins > 256 }

// cellBytes returns the bytes one frame's cells take.
func (b *Binner) cellBytes() int {
	if b.wide() {
		return 2 * len(b.rows)
	}
	return len(b.rows)
}

// BinsBytes returns the most bytes a record of n frames can take: one run a
// frame, every frame stored.
func (b *Binner) BinsBytes(n int) int { return 4 + n*(8+b.cellBytes()) }

// frameBucket returns the time bucket of a frame stamped t seconds, or
// skipBucket when t is NaN or ±Inf or its tick, t·rate rounded half up, is
// negative. Every other tick past the horizon, however large, clamps into
// the last bucket. The decision is made on the float: only a tick inside
// the horizon converts to int, because a float → int conversion past int's
// range is implementation-defined and differs between platforms, and one
// that truncates toward zero would put a tick of −1 in bucket 0.
func (b *Binner) frameBucket(t float64) uint32 {
	x := t*b.rate + 0.5
	switch {
	case x >= 0 && x < b.horizon:
		return uint32(int(x) / b.tpb)
	case !(x >= 0) || math.IsInf(t, 0):
		return skipBucket
	}
	return uint32(b.timeBuckets - 1)
}

// binsWriter lays a bins record of at most n frames out in one pass over
// them: the runs go where they end up, from rec[4:], and the cells start
// past room for the most runs n frames can make, then move down to meet
// the runs once their count is known (finish).
type binsWriter struct {
	dst            []byte // the record is appended to dst
	rec            []byte // room for the record, past dst's end
	cb             int    // cell bytes a frame
	frames, stored int
	runs, cells    int // where the next run and the next frame's cells go
	cellsAt        int // where the first frame's cells went
	cur, run       uint32
}

// writer starts a record of at most n frames, appended to dst.
func (b *Binner) writer(dst []byte, n int) binsWriter {
	size := b.BinsBytes(n)
	dst = slices.Grow(dst, size)
	return binsWriter{dst: dst, rec: dst[len(dst) : len(dst)+size], cb: b.cellBytes(), runs: 4, cells: 4 + 8*n, cellsAt: 4 + 8*n}
}

// next adds a frame in time bucket tb (skipBucket: skipped) and returns
// where its cells go, nil for a skipped frame.
func (w *binsWriter) next(tb uint32) []byte {
	w.frames++
	if w.run > 0 && tb != w.cur {
		w.endRun()
	}
	w.cur = tb
	w.run++
	if tb == skipBucket {
		return nil
	}
	w.stored++
	w.cells += w.cb
	return w.rec[w.cells-w.cb : w.cells]
}

// endRun writes the run in progress.
func (w *binsWriter) endRun() {
	binary.LittleEndian.PutUint32(w.rec[w.runs:], w.cur)
	binary.LittleEndian.PutUint32(w.rec[w.runs+4:], w.run)
	w.runs, w.run = w.runs+8, 0
}

// finish completes the record and returns dst with it appended, and the
// number of frames it stores.
func (w *binsWriter) finish() ([]byte, int) {
	if w.run > 0 {
		w.endRun()
	}
	binary.LittleEndian.PutUint32(w.rec, uint32(w.frames))
	end := w.runs + copy(w.rec[w.runs:], w.rec[w.cellsAt:w.cells])
	return w.dst[:len(w.dst)+end], w.stored
}

// Bin appends the bins record of body's frames to dst and returns it with
// the number of frames the record stores. body holds whole frame records
// in their wire encoding — T, then one value per channel, each a
// little-endian IEEE-754 float64 — as wire.CheckBatch returns them; a
// trailing partial record is not binned. A frame with a negative tick or a
// timestamp that is not finite is skipped, as every append path skips it.
// Bin reads only the Binner, so it runs outside any store lock; with dst of
// capacity BinsBytes it allocates nothing.
func (b *Binner) Bin(body, dst []byte) ([]byte, int) {
	rows, wide := b.rows, b.wide()
	rec := (len(rows) + 1) * 8
	w := b.writer(dst, len(body)/rec)
	for ; len(body) >= rec; body = body[rec:] {
		cells := w.next(b.frameBucket(math.Float64frombits(binary.LittleEndian.Uint64(body))))
		switch {
		case cells == nil:
		case wide:
			binWide(cells, rows, body[8:rec])
		default:
			binNarrow(cells, rows, body[8:rec])
		}
	}
	return w.finish()
}

// binNarrow writes the one-byte bins of a frame's encoded values, vals,
// into out, one per row of the bin table. A loop of its own keeps the few
// values it needs in registers.
func binNarrow(out []byte, rows []binRow, vals []byte) {
	rows, vals = rows[:len(out)], vals[:8*len(out)]
	for c := range out {
		out[c] = uint8(rows[c].bin(math.Float64frombits(binary.LittleEndian.Uint64(vals[8*c:]))))
	}
}

// binWide is binNarrow for two-byte bins.
func binWide(out []byte, rows []binRow, vals []byte) {
	for c := range rows {
		binary.LittleEndian.PutUint16(out[2*c:], uint16(rows[c].bin(math.Float64frombits(binary.LittleEndian.Uint64(vals[8*c:])))))
	}
}

// BinFrames is Bin for decoded frames. A frame whose width is not the
// channel count is skipped, as a negative tick is.
func (b *Binner) BinFrames(frames []stream.Frame, dst []byte) ([]byte, int) {
	w := b.writer(dst, len(frames))
	for i := range frames {
		tb := uint32(skipBucket)
		if len(frames[i].Values) == len(b.rows) {
			tb = b.frameBucket(frames[i].T)
		}
		if cells := w.next(tb); cells != nil {
			b.binValues(cells, frames[i].Values)
		}
	}
	return w.finish()
}

// binValues writes the bins of one frame's values into out.
func (b *Binner) binValues(out []byte, vals []float64) {
	rows := b.rows[:len(vals)]
	if b.wide() {
		for c, v := range vals {
			binary.LittleEndian.PutUint16(out[2*c:], uint16(rows[c].bin(v)))
		}
		return
	}
	out = out[:len(vals)]
	for c, v := range vals {
		out[c] = uint8(rows[c].bin(v))
	}
}

// CheckBins validates a bins record against the Binner's shape without
// storing anything and returns the frames it covers and the frames it
// stores. The counts are checked against the record's length before they
// are used: a run past its record, an empty run, two neighbouring runs in
// one bucket, a bucket past TimeBuckets, a bin past ValueBins, runs that do
// not sum to the frame count or cells that are not exactly one per stored
// frame and channel all refuse the record.
func (b *Binner) CheckBins(rec []byte) (frames, stored int, err error) {
	if len(rec) < 4 {
		return 0, 0, fmt.Errorf("core: bins record of %d bytes has no frame count", len(rec))
	}
	n := binary.LittleEndian.Uint32(rec)
	if n > maxBinsFrames {
		return 0, 0, fmt.Errorf("core: bins record claims %d frames, more than any batch holds", n)
	}
	var seen, kept uint32
	at, prev := 4, uint32(0)
	for seen < n {
		if len(rec)-at < 8 {
			return 0, 0, fmt.Errorf("core: bins record ends inside its runs after %d of %d frames", seen, n)
		}
		tb, k := binary.LittleEndian.Uint32(rec[at:]), binary.LittleEndian.Uint32(rec[at+4:])
		switch {
		case k == 0 || k > n-seen:
			return 0, 0, fmt.Errorf("core: bins run of %d frames in a record with %d left", k, n-seen)
		case tb != skipBucket && tb >= uint32(b.timeBuckets):
			return 0, 0, fmt.Errorf("core: bins run in time bucket %d of %d", tb, b.timeBuckets)
		case at > 4 && tb == prev:
			return 0, 0, fmt.Errorf("core: two neighbouring bins runs in time bucket %d", tb)
		}
		if tb != skipBucket {
			kept += k
		}
		seen += k
		prev = tb
		at += 8
	}
	cells := rec[at:]
	if uint64(len(cells)) != uint64(kept)*uint64(b.cellBytes()) {
		return 0, 0, fmt.Errorf("core: bins record holds %d cell bytes for %d stored frames of %d channels", len(cells), kept, len(b.rows))
	}
	if !b.binsInRange(cells) {
		return 0, 0, fmt.Errorf("core: bins record holds a value bin past %d", b.valueBins)
	}
	return int(n), int(kept), nil
}

// binsInRange reports whether every cell is below valueBins, a power of
// two: exactly when the OR of all cells has no bit at or above it, which
// is taken eight bytes at a time.
func (b *Binner) binsInRange(cells []byte) bool {
	var acc uint64
	for ; len(cells) >= 8; cells = cells[8:] {
		acc |= binary.LittleEndian.Uint64(cells)
	}
	var tail [8]byte
	copy(tail[:], cells)
	acc |= binary.LittleEndian.Uint64(tail[:])
	lane, per := uint64(0xff), uint64(0x0101010101010101)
	if b.wide() {
		lane, per = 0xffff, 0x0001000100010001
	}
	return acc&(^uint64(b.valueBins-1)&lane*per) == 0
}

// TrimBins appends to dst the record of rec's frames past its first k:
// its covered prefix trimmed, as replay past a snapshot watermark needs.
// rec must have passed CheckBins and k must not exceed its frame count.
func (b *Binner) TrimBins(rec []byte, k int, dst []byte) []byte {
	n := int(binary.LittleEndian.Uint32(rec))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n-k))
	dropped := 0 // stored frames in the trimmed prefix
	at := 4
	for seen := 0; seen < n; at += 8 {
		tb, run := binary.LittleEndian.Uint32(rec[at:]), int(binary.LittleEndian.Uint32(rec[at+4:]))
		seen += run
		cut := min(k, run)
		k -= cut
		if tb != skipBucket {
			dropped += cut
		}
		if run > cut {
			dst = binary.LittleEndian.AppendUint32(dst, tb)
			dst = binary.LittleEndian.AppendUint32(dst, uint32(run-cut))
		}
	}
	return append(dst, rec[at+dropped*b.cellBytes():]...)
}
