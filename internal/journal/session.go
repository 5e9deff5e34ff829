package journal

import (
	"sync"
	"sync/atomic"
	"time"

	"aims/internal/core"
	"aims/internal/stream"
)

// Session is one live session's durability handle: its WAL append side
// plus snapshot bookkeeping. A single goroutine — the session's
// appender — calls AppendGroup, MaybeSnapshot and Close;
// Processed/Degraded are safe from any goroutine (the admin plane reads
// them).
type Session struct {
	key  string
	dir  string
	cfg  Config
	wal  *wal
	bins *core.Binner // the session's store's, for AppendFrames

	processed  atomic.Uint64 // frames seen in consumer order (journaled or shed)
	snapFrames atomic.Uint64 // watermark of the newest snapshot
	degraded   atomic.Bool

	ackMu sync.Mutex
	ack   ackMark // the newest acknowledged watermark and the frame index it maps to
}

// Processed returns the frames seen so far in consumer order, including
// any journaled by a previous incarnation before a crash.
func (s *Session) Processed() uint64 { return s.processed.Load() }

// Degraded reports whether the session has shed durability after a disk
// failure. A successful snapshot heals it.
func (s *Session) Degraded() bool { return s.degraded.Load() }

// AppendFrames journals one batch of decoded frames, a group of one: it
// bins them as the session's store bins them (a frame of the wrong width
// recorded as skipped) and journals the record through AppendGroup.
func (s *Session) AppendFrames(frames []stream.Frame, keepTrying func() bool) {
	bins, _ := s.bins.BinFrames(frames, nil)
	s.AppendGroup([][]byte{bins}, keepTrying)
}

// AppendGroup journals a run of acquisition batches before the caller
// appends them to the live store: one WAL record per batch, in order, and
// one fsync for the run, taken before AppendGroup returns. Each batch is
// its core bins record (core.LiveStore.Bin) — the bytes the caller then
// stores with AppendBins — which the WAL frames as they are. The frames
// count toward the session's processed order whether or not the write
// lands, so snapshot watermarks stay truthful even while durability is
// shed.
//
// On a write failure the behaviour follows Config.Degrade: DegradeBlock
// retries (stalling the caller — the bounded ingest queue then applies
// device backpressure) for as long as keepTrying returns true, then
// degrades; DegradeShed degrades immediately. A retry resumes at the first
// record that did not reach the log whole. Degradation is counted once on
// Config.Degraded.
func (s *Session) AppendGroup(group [][]byte, keepTrying func() bool) {
	start := s.processed.Load()
	end := start
	for _, bins := range group {
		end += uint64(binsFrames(bins))
	}
	s.processed.Store(end)
	if s.degraded.Load() {
		return
	}
	for {
		landed, err := s.wal.append(start, group)
		if err == nil {
			return
		}
		for _, bins := range group[:landed] {
			start += uint64(binsFrames(bins))
		}
		group = group[landed:]
		if s.cfg.Degrade == DegradeBlock && keepTrying != nil && keepTrying() {
			time.Sleep(5 * time.Millisecond)
			continue
		}
		s.degrade(err)
		return
	}
}

// degrade sheds the session's durability after err, reporting it once.
func (s *Session) degrade(err error) {
	s.cfg.Logf("journal: session %s shedding durability: %v", s.key, err)
	if s.degraded.CompareAndSwap(false, true) {
		s.cfg.Degraded.Inc()
	}
}

// ClientSeq returns the session's acknowledged client-stream watermark:
// the offset below which every frame the device sent has been either
// journaled or knowingly shed. It equals Processed unless load shedding
// dropped acknowledged frames, and it is the resume point a reconnecting
// v4 device is told about (Welcome.AckSeq).
func (s *Session) ClientSeq() uint64 {
	return s.processed.Load() + s.ackMark().gap()
}

func (s *Session) ackMark() ackMark {
	s.ackMu.Lock()
	defer s.ackMu.Unlock()
	return s.ack
}

// RecordAck persists a client-stream watermark seq that ran ahead of the
// journal — the server acknowledged frames (as shed) that will never reach
// the log. index is the journal frame index seq maps to: the index the
// reader's next enqueued frame will take, which Processed lags while
// enqueued frames wait for the appender. Recovery puts the watermark
// seq − index frames past the frames it replays. Best-effort: losing the
// record merely lets a resuming device re-offer those frames, and the
// second offer may even store them.
func (s *Session) RecordAck(seq, index uint64) {
	s.ackMu.Lock()
	if seq <= s.ack.seq {
		s.ackMu.Unlock()
		return
	}
	s.ack = ackMark{seq, index}
	s.ackMu.Unlock()
	if s.degraded.Load() {
		return
	}
	if err := s.wal.appendAck(ackMark{seq, index}, s.processed.Load()); err != nil {
		s.cfg.Logf("journal: session %s ack record failed: %v", s.key, err)
	}
}

// carryAck writes the newest ack mark into the open segment again, when it
// records a gap and the log is up: deleting the segments before it may
// have taken its only record, or durability was shed when it was made.
func (s *Session) carryAck() {
	a := s.ackMark()
	if a.gap() == 0 || s.degraded.Load() {
		return
	}
	if err := s.wal.appendAck(a, s.processed.Load()); err != nil {
		s.cfg.Logf("journal: session %s ack record failed: %v", s.key, err)
	}
}

// MaybeSnapshot snapshots the live store once SnapshotFrames new frames
// have been processed since the last snapshot. It reports whether a
// snapshot was attempted.
func (s *Session) MaybeSnapshot(ls *core.LiveStore) bool {
	if s.cfg.SnapshotFrames < 0 {
		return false
	}
	if s.processed.Load()-s.snapFrames.Load() < uint64(s.cfg.SnapshotFrames) {
		return false
	}
	s.Snapshot(ls)
	return true
}

// Snapshot writes the live store's count cube (core.LiveStore.AppendSnapshot:
// no seal, no engine) atomically, truncates the WAL to the new watermark,
// and — if the session had shed durability — rotates onto a fresh segment
// to restore it.
func (s *Session) Snapshot(ls *core.LiveStore) error {
	t0 := time.Now()
	// The caller is the session's appender, so the store holds exactly
	// the processed frames: the watermark is read before encoding.
	watermark := s.processed.Load()
	if err := writeSnapshot(s.dir, watermark, ls.AppendSnapshot(nil), s.cfg.OpenFile); err != nil {
		s.cfg.Logf("journal: session %s snapshot failed: %v", s.key, err)
		s.cfg.SnapshotErrors.Inc()
		return err
	}
	s.snapFrames.Store(watermark)
	if err := s.wal.truncateBelow(watermark); err != nil {
		s.cfg.Logf("journal: session %s wal truncation: %v", s.key, err)
	}
	if s.degraded.Load() {
		// Everything up to the watermark is durable again; restart the log
		// there so the journaled stream stays gap-free from this point.
		s.wal.mu.Lock()
		err := s.wal.rotateLocked(watermark)
		s.wal.mu.Unlock()
		if err == nil {
			s.degraded.Store(false)
			s.cfg.Healed.Inc()
		}
	}
	// The truncation may have deleted the segment holding the newest ack
	// mark's only record.
	s.carryAck()
	s.cfg.SnapshotSeconds.Observe(time.Since(t0).Seconds())
	return nil
}

// Checkpoint makes every processed frame durable and leaves the files open:
// a snapshot if frames arrived since the last one, and a WAL sync if that
// snapshot fails. It returns the snapshot's error.
func (s *Session) Checkpoint(ls *core.LiveStore) error {
	if ls == nil || s.processed.Load() <= s.snapFrames.Load() {
		return nil
	}
	err := s.Snapshot(ls)
	if err != nil {
		if ferr := s.wal.sync(); ferr != nil {
			s.cfg.Logf("journal: session %s wal sync after a failed snapshot: %v", s.key, ferr)
		}
	}
	return err
}

// Close checkpoints the session one final time and releases its files.
// Once a snapshot covers every frame, the log goes, an ack mark with a gap
// carried over: the next Load reads the snapshot alone.
func (s *Session) Close(ls *core.LiveStore) error {
	err := s.Checkpoint(ls)
	if n := s.processed.Load(); err == nil && !s.degraded.Load() && s.snapFrames.Load() == n {
		if s.wal.restart(n) == nil {
			s.carryAck()
		}
	}
	if cerr := s.wal.close(); err == nil {
		err = cerr
	}
	return err
}
