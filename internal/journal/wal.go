package journal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"aims/internal/core"
	"aims/internal/wire"
)

// WAL on-disk format. Each segment file is
//
//	magic "AIMSWAL1" | firstFrame u64 |            (segment header)
//	{ length u32 | crc32c u32 | type u8 | body }…  (records)
//
// in little-endian byte order. length counts the type byte plus the body;
// the CRC (Castagnoli polynomial) covers the same span, so a torn tail, a
// short read or a flipped bit anywhere in a record is detected and the log
// is truncated at the last intact record. A bins record's body is
//
//	firstFrame u64 | core bins record
//
// firstFrame being the absolute index of the record's first frame in the
// session's processed-frame order — replay uses it to skip frames already
// covered by a snapshot and to tolerate gaps left by a degraded
// (durability-shedding) period — and the bins record (core.Binner.Bin) the
// batch as the store keeps it: its frame count, the runs of frames in one
// time bucket (negative ticks marked skipped) and one value bin per stored
// frame and channel, u8 when ValueBins ≤ 256, else u16. The shape that
// reads it — channels, time buckets, value bins — is the session's
// meta.json. An ack record's body is an ackMark: two u64. Replay reads
// these two record types and refuses any other (see replayWAL).

var walMagic = [8]byte{'A', 'I', 'M', 'S', 'W', 'A', 'L', '1'}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

const (
	walHeaderSize = 16
	recHeaderSize = 9
	recAck        = byte(2) // body = ackMark: u64 client-stream watermark | u64 journal frame index
	recBins       = byte(3) // body = u64 first frame index | core bins record
	// maxRecordBytes bounds a record's type byte and body: a bins record
	// is never larger than the wire batch it bins (a u64 index and a u32
	// count against a 14-byte header, at most 8 bytes of runs a frame
	// against its u64 T, at most 2 bytes a cell against a float64).
	maxRecordBytes = wire.MaxPayload + 1
)

const segPrefix = "wal-"

func segName(seq int) string { return fmt.Sprintf("%s%08d.log", segPrefix, seq) }

// segSeq parses a segment file name; ok=false for non-segment files.
func segSeq(name string) (int, bool) {
	var seq int
	if n, err := fmt.Sscanf(name, segPrefix+"%08d.log", &seq); n == 1 && err == nil {
		return seq, true
	}
	return 0, false
}

// listSegments returns the directory's WAL segment sequence numbers in
// ascending order.
func listSegments(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []int
	for _, e := range entries {
		if seq, ok := segSeq(e.Name()); ok && !e.IsDir() {
			seqs = append(seqs, seq)
		}
	}
	sort.Ints(seqs)
	return seqs, nil
}

// wal is one session's segmented write-ahead log, append side. The
// session's appender goroutine writes bins records and the socket reader
// writes the occasional ack record; the mutex orders the two and Close.
type wal struct {
	dir string
	cfg Config

	mu         sync.Mutex
	f          File
	seq        int
	size       int64
	dirty      bool
	needRotate bool // last write failed mid-record: rotate before reuse
	// segs lists the segments on disk, oldest first, each with the index
	// of its first frame: read from their headers once at open, then kept
	// as rotation writes them, so truncateBelow neither lists the
	// directory nor opens a header.
	segs []segment

	scratch []byte // record build buffer, reused across appends
}

// walScratchBytes is where a group's records stop accumulating in the
// build buffer and go to the file: a group reaches the disk in a few large
// writes, and the buffer holds at most this much plus one record however
// long the group is.
const walScratchBytes = 256 << 10

// openWAL starts appending to a fresh segment numbered after any existing
// ones, whose records begin at absolute frame index firstFrame.
func openWAL(dir string, firstFrame uint64, cfg Config) (*wal, error) {
	seqs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	w := &wal{dir: dir, cfg: cfg}
	for _, seq := range seqs {
		first, err := readSegmentFirstFrame(filepath.Join(dir, segName(seq)))
		if err != nil {
			first = math.MaxUint64 // unreadable: nothing before it is ever proven covered
		}
		w.segs = append(w.segs, segment{seq, first})
		w.seq = seq
	}
	if err := w.rotateLocked(firstFrame); err != nil {
		return nil, err
	}
	return w, nil
}

// rotateLocked closes the current segment and opens the next, writing its
// header. Callers hold w.mu (or own the wal exclusively).
func (w *wal) rotateLocked(firstFrame uint64) error {
	if w.f != nil {
		if w.dirty {
			w.syncLocked() // best effort; the old segment is already on disk
		}
		w.f.Close()
		w.f = nil
	}
	seq := w.seq + 1
	f, err := w.cfg.OpenFile(filepath.Join(w.dir, segName(seq)))
	if err != nil {
		return err
	}
	var hdr [walHeaderSize]byte
	copy(hdr[:8], walMagic[:])
	binary.LittleEndian.PutUint64(hdr[8:], firstFrame)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		os.Remove(filepath.Join(w.dir, segName(seq)))
		return err
	}
	w.f = f
	w.seq = seq
	w.segs = append(w.segs, segment{seq, firstFrame})
	w.size = walHeaderSize
	w.dirty = true
	w.needRotate = false
	return nil
}

// append journals a group of batches, one bins record each, the first
// batch's first frame having absolute index startFrame. Each batch is its
// core bins record (core.Binner.Bin), framed as is behind the index of its
// first frame. The records are the bytes a batch-at-a-time log would hold,
// segment boundaries included; what the group shares is the durability
// step — one fsync, plus one for each segment the group fills and leaves —
// taken after its last record is written and before append returns.
//
// On failure landed counts the group's leading records that reached the
// file whole. They are never written again — a repeated record is a frame
// index going backwards, which replay treats as corruption — so the caller
// retries with group[landed:]. A failed sync reports every record landed:
// retrying with what is left (nothing) retries the sync alone.
func (w *wal) append(startFrame uint64, group [][]byte) (landed int, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	buf, built := w.scratch[:0], 0 // records built in buf and not yet written
	defer func() { w.scratch = buf[:0] }()
	// flush hands the built records to the file. A short write leaves a
	// torn record at the segment's tail (recovery cuts it there), so the
	// log continues on a fresh file; the records that landed whole are
	// those whose length prefixes chain to an end within the bytes written.
	flush := func() error {
		n, err := w.f.Write(buf)
		w.size += int64(n)
		w.dirty = true
		w.cfg.WALBytes.Add(uint64(n))
		if err != nil {
			w.needRotate = true
			built = 0
			for end := 0; end < len(buf); built++ {
				if end += 8 + int(binary.LittleEndian.Uint32(buf[end:])); end > n {
					break
				}
			}
		}
		landed += built
		buf, built = buf[:0], 0
		return err
	}
	next := startFrame
	for _, bins := range group {
		if w.needRotate || w.size+int64(len(buf)) >= w.cfg.SegmentBytes {
			// The segment is full, or an earlier write tore its tail; either
			// way this record opens a fresh file. What the group wrote to
			// the old one is synced strictly first: rotation's own sync is
			// best effort, and the group's last sync will not reach it.
			if len(buf) > 0 {
				if err := flush(); err != nil {
					return landed, err
				}
			}
			if w.dirty && w.f != nil {
				if err := w.syncLocked(); err != nil {
					return landed, err
				}
			}
			if err := w.rotateLocked(next); err != nil {
				return landed, err
			}
		}
		buf = appendBinsRecord(buf, next, bins)
		built++
		next += uint64(binsFrames(bins))
		if len(buf) >= walScratchBytes {
			if err := flush(); err != nil {
				return landed, err
			}
		}
	}
	if len(buf) > 0 {
		if err := flush(); err != nil {
			return landed, err
		}
	}
	// Nothing is open only after a failed rotation, and what preceded that
	// was synced before the old segment was let go.
	if w.f != nil && w.dirty {
		return landed, w.syncLocked()
	}
	return landed, nil
}

// binsFrames returns the frame count a core bins record opens with.
func binsFrames(bins []byte) uint32 { return binary.LittleEndian.Uint32(bins) }

// appendBinsRecord appends the WAL record of a batch's bins record, its
// first frame at index first, to buf.
func appendBinsRecord(buf []byte, first uint64, bins []byte) []byte {
	at := len(buf)
	buf = append(buf, make([]byte, recHeaderSize)...)
	buf = binary.LittleEndian.AppendUint64(buf, first)
	return sealRecord(append(buf, bins...), at, recBins)
}

// sealRecord fills in the header of the record of type typ whose body
// runs from buf[at+recHeaderSize:] to the end of buf: its length and CRC.
func sealRecord(buf []byte, at int, typ byte) []byte {
	binary.LittleEndian.PutUint32(buf[at:], uint32(len(buf)-at-8)) // type byte + body
	buf[at+8] = typ
	binary.LittleEndian.PutUint32(buf[at+4:], crc32.Checksum(buf[at+8:], crcTable))
	return buf
}

// ackMark pairs a client-stream watermark the server acknowledged with the
// journal frame index it maps to: the index the device's next frame past
// the watermark takes once enqueued. Their difference is how far the
// device's offsets run ahead of the journal's — the frames acknowledged as
// shed — so a session that journals more frames afterwards stays that far
// ahead: processed frames + gap is its acknowledged watermark.
type ackMark struct{ seq, index uint64 }

// gap returns how far the watermark runs ahead of its frame index.
func (a ackMark) gap() uint64 {
	if a.seq > a.index {
		return a.seq - a.index
	}
	return 0
}

// appendAck records an ack mark. It is written when the server
// acknowledges frames it will never journal (a shed), so recovery can
// restore the exactly-once dedup point even though those frames are absent
// from the log. nextFrame is the absolute index the next bins record
// would carry — it seeds the segment header on rotation. The record is
// synced before appendAck returns.
func (w *wal) appendAck(a ackMark, nextFrame uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	var rec [recHeaderSize + 16]byte
	binary.LittleEndian.PutUint32(rec[0:4], 17) // type byte + two u64
	rec[8] = recAck
	binary.LittleEndian.PutUint64(rec[9:], a.seq)
	binary.LittleEndian.PutUint64(rec[17:], a.index)
	binary.LittleEndian.PutUint32(rec[4:8], crc32.Checksum(rec[8:], crcTable))

	if w.needRotate || w.size >= w.cfg.SegmentBytes {
		if err := w.rotateLocked(nextFrame); err != nil {
			return err
		}
	}
	if _, err := w.f.Write(rec[:]); err != nil {
		w.needRotate = true
		return err
	}
	w.size += int64(len(rec))
	w.dirty = true
	w.cfg.WALBytes.Add(uint64(len(rec)))
	return w.syncLocked()
}

func (w *wal) syncLocked() error {
	t0 := time.Now()
	err := w.f.Sync()
	w.cfg.FsyncSeconds.Observe(time.Since(t0).Seconds())
	if err == nil {
		w.dirty = false
	}
	return err
}

// sync forces the current segment to stable storage.
func (w *wal) sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil || !w.dirty {
		return nil
	}
	return w.syncLocked()
}

// close syncs and closes the current segment.
func (w *wal) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	var err error
	empty := w.size == walHeaderSize // no record (resumed, then left idle): the segment goes
	if w.dirty && !empty {
		err = w.syncLocked()
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	if empty {
		os.Remove(filepath.Join(w.dir, segName(w.seq)))
		w.segs = w.segs[:len(w.segs)-1]
	}
	w.f = nil
	return err
}

// segment is one segment on disk: its sequence number and the index of
// its first frame.
type segment struct {
	seq   int
	first uint64
}

// truncateBelow deletes segments made fully redundant by a snapshot at the
// given frame watermark: a segment may go once the NEXT segment starts at
// or below the watermark (so every record it holds is covered). The open
// (last) segment is never deleted. The files are removed outside w.mu, so
// an ack record need not wait for the unlinks.
func (w *wal) truncateBelow(watermark uint64) error {
	w.mu.Lock()
	n := 0
	for n+1 < len(w.segs) && w.segs[n].seq < w.seq && w.segs[n+1].first <= watermark {
		n++
	}
	gone := slices.Clone(w.segs[:n])
	w.segs = slices.Delete(w.segs, 0, n)
	w.mu.Unlock()
	for _, seg := range gone {
		if err := os.Remove(filepath.Join(w.dir, segName(seg.seq))); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return nil
}

// restart begins the log afresh at frame index next, once a durable
// snapshot covers every frame before it, and deletes the segments before
// it. The old segment is not synced first: no record of it is read again.
func (w *wal) restart(next uint64) error {
	w.mu.Lock()
	w.dirty = false
	err := w.rotateLocked(next)
	w.mu.Unlock()
	if err != nil {
		return err
	}
	return w.truncateBelow(next)
}

func readSegmentFirstFrame(path string) (uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var hdr [walHeaderSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return 0, err
	}
	if [8]byte(hdr[:8]) != walMagic {
		return 0, fmt.Errorf("journal: bad segment magic in %s", filepath.Base(path))
	}
	return binary.LittleEndian.Uint64(hdr[8:]), nil
}

// replayResult reports one directory's WAL replay.
type replayResult struct {
	// processed is the absolute frame index after the last replayed
	// record (the recovered session's processed-frame count).
	processed uint64
	// truncated reports that a torn tail / corrupt record was found and
	// the log was cut back to the last valid record.
	truncated bool
	// ackSeq is the acknowledged client-stream watermark the ack records
	// give (0 when there are none): processed plus the largest gap of an
	// ack mark whose frame index processed reached.
	ackSeq uint64
}

// replayWAL streams every intact bins record at or above the watermark
// through fn, in processed-frame order, checked against bn's shape; the
// record is valid only for the call, the next one being read into the same
// buffer. Records wholly below the watermark are skipped; a record
// straddling it is delivered with its covered prefix trimmed. Corruption
// anywhere — bad segment header, short read, CRC mismatch, a body that does
// not check (a bin past ValueBins, a bucket past TimeBuckets, counts that
// disagree with the body's length), out-of-order frame index — truncates
// the log at the last valid record: the offending segment is cut back
// there.
//
// Whether the segments after it survive depends on what their first header
// proves. The writer answers a torn write by rotating, and stamps the new
// segment with the index of the first frame that did not land; so if the
// next segment starts exactly at the frame index expected after the last
// intact record, nothing is missing between them and replay continues. It
// also continues if the next segment starts at or below the watermark: the
// snapshot already holds whatever the cut lost (a session that shed
// durability over a torn tail and was healed by a snapshot restarts its
// log this way). Anything else drops the later segments, because records
// past a tear cannot otherwise be trusted to be gap-free.
//
// An intact record that is neither a bins record nor a 16-byte ack mark —
// a frames record or an 8-byte ack, which versions before bins records
// wrote, or a type no version wrote — fails the replay with ErrFormat
// instead: skipping it would read its frames as a gap. No segment is cut
// or dropped until every one has been read, a dropped one for its record
// types alone, so a refused log is left byte for byte as it was.
func replayWAL(dir string, watermark uint64, bn *core.Binner, fn func(startFrame uint64, bins []byte)) (replayResult, error) {
	r := replayer{watermark: watermark, bn: bn, fn: fn}
	r.res.processed = watermark
	seqs, err := listSegments(dir)
	if err != nil {
		return r.res, err
	}
	type cut struct {
		path string
		keep int64 // bytes kept; 0 removes the file
	}
	var cuts []cut
	for i, seq := range seqs {
		path := filepath.Join(dir, segName(seq))
		keepFrom, segEnd, corrupt, err := r.segment(path)
		if err != nil {
			return r.res, err
		}
		if r.dropping {
			cuts = append(cuts, cut{path, 0})
			continue
		}
		if !corrupt {
			continue
		}
		r.res.truncated = true
		if keepFrom == 0 || keepFrom < segEnd {
			cuts = append(cuts, cut{path, keepFrom})
		}
		if i+1 < len(seqs) {
			first, err := readSegmentFirstFrame(filepath.Join(dir, segName(seqs[i+1])))
			if err == nil && (first == r.expect || (first > r.expect && first <= watermark)) {
				continue
			}
		}
		r.dropping = true
	}
	for _, c := range cuts {
		if c.keep == 0 {
			os.Remove(c.path)
		} else {
			os.Truncate(c.path, c.keep)
		}
	}
	// A mark whose index lies past the replayed frames was written while
	// frames before it waited for the appender, and they are lost: its gap
	// would count them as shed, so it is ignored and the device replays.
	for _, a := range r.acks {
		if a.index <= r.res.processed {
			r.res.ackSeq = max(r.res.ackSeq, r.res.processed+a.gap())
		}
	}
	return r.res, nil
}

// replayer is the state one directory's replay carries from segment to
// segment.
type replayer struct {
	watermark uint64
	bn        *core.Binner
	fn        func(startFrame uint64, bins []byte)

	expect   uint64 // next frame index an intact log would carry
	dropping bool   // a cut drops the segments still to read
	res      replayResult
	acks     []ackMark // the intact ack records, in log order
	body     []byte    // record read buffer, reused record to record
	trim     []byte    // a straddling record's uncovered suffix
}

// segment scans one segment. It returns the byte offset up to which the
// file is intact (0 if even the header is bad), the scanned size, and
// whether a corrupt record cut the scan short; err is ErrFormat for an
// intact record of a type replay does not read.
func (r *replayer) segment(path string) (keepFrom, segEnd int64, corrupt bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, false, err
	}
	defer f.Close()
	br := newByteCounter(f)

	var hdr [walHeaderSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil || [8]byte(hdr[:8]) != walMagic {
		return 0, br.n, true, nil
	}
	first := binary.LittleEndian.Uint64(hdr[8:])
	if first < r.expect {
		// A segment rewinding the frame clock cannot be trusted.
		return 0, br.n, true, nil
	}
	r.expect = first
	good := br.n

	var rh [recHeaderSize]byte
	for {
		if _, err := io.ReadFull(br, rh[:]); err != nil {
			return good, br.n, err != io.EOF, nil // EOF at a boundary is a clean end
		}
		length := binary.LittleEndian.Uint32(rh[0:4])
		if length == 0 || length > maxRecordBytes {
			return good, br.n, true, nil
		}
		want := binary.LittleEndian.Uint32(rh[4:8])
		if n := int(length - 1); cap(r.body) < n {
			r.body = make([]byte, n)
		}
		body := r.body[:length-1]
		crc := crc32.Checksum(rh[8:9], crcTable)
		if _, err := io.ReadFull(br, body); err != nil {
			return good, br.n, true, nil
		}
		if crc32.Update(crc, crcTable, body) != want {
			return good, br.n, true, nil
		}
		switch typ := rh[8]; {
		case typ == recAck && len(body) == 8:
			return good, br.n, false, formatError(path, "an 8-byte ack record")
		case typ == 1:
			return good, br.n, false, formatError(path, "a frames record (type 1)")
		case typ != recAck && typ != recBins:
			return good, br.n, false, formatError(path, fmt.Sprintf("a record of type %d", typ))
		case r.dropping:
			continue // read for its type alone
		case typ == recAck:
			if len(body) != 16 {
				return good, br.n, true, nil
			}
			r.acks = append(r.acks, ackMark{binary.LittleEndian.Uint64(body), binary.LittleEndian.Uint64(body[8:])})
			good = br.n
			continue
		}
		if len(body) < 8 {
			return good, br.n, true, nil
		}
		seq, bins := binary.LittleEndian.Uint64(body), body[8:]
		count, _, err := r.bn.CheckBins(bins)
		if err != nil {
			return good, br.n, true, nil
		}
		end := seq + uint64(count)
		if seq < r.expect || end < seq {
			// Frame indices never go backwards in an intact log, nor wrap;
			// gaps (from a degraded period) are allowed, overlaps are not.
			return good, br.n, true, nil
		}
		r.expect = end
		good = br.n
		if end > r.watermark {
			start := seq
			if start < r.watermark {
				r.trim = r.bn.TrimBins(bins, int(r.watermark-start), r.trim[:0])
				bins, start = r.trim, r.watermark
			}
			r.fn(start, bins)
			r.res.processed = end
		}
	}
}

// byteCounter counts bytes consumed from the underlying reader so the
// replay can truncate at exact record boundaries.
type byteCounter struct {
	r io.Reader
	n int64
}

func newByteCounter(r io.Reader) *byteCounter { return &byteCounter{r: r} }

func (b *byteCounter) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	b.n += int64(n)
	return n, err
}
