package journal

import (
	"sync/atomic"
	"time"

	"aims/internal/core"
	"aims/internal/stream"
	"aims/internal/wire"
)

// Session is one live session's durability handle: its WAL append side
// plus snapshot bookkeeping. A single goroutine — the session's
// appender — calls AppendGroup, MaybeSnapshot and Close;
// Processed/Degraded are safe from any goroutine (the admin plane reads
// them).
type Session struct {
	key   string
	dir   string
	cfg   Config
	wal   *wal
	width int

	processed  atomic.Uint64 // frames seen in consumer order (journaled or shed)
	snapFrames atomic.Uint64 // watermark of the newest snapshot
	clientSeq  atomic.Uint64 // highest acked client-stream offset (≥ processed when shedding)
	degraded   atomic.Bool
}

// Processed returns the frames seen so far in consumer order, including
// any journaled by a previous incarnation before a crash.
func (s *Session) Processed() uint64 { return s.processed.Load() }

// Degraded reports whether the session has shed durability after a disk
// failure. A successful snapshot heals it.
func (s *Session) Degraded() bool { return s.degraded.Load() }

// AppendFrames journals one batch of decoded frames, a group of one: it
// encodes them once and journals the encoding through AppendGroup.
func (s *Session) AppendFrames(frames []stream.Frame, keepTrying func() bool) {
	body, err := wire.AppendFrames(nil, frames, s.width)
	if err != nil {
		// Frames of the wrong width cannot be framed; they still count
		// toward the processed order, and the log no longer holds the stream.
		s.processed.Add(uint64(len(frames)))
		if !s.degraded.Load() {
			s.degrade(err)
		}
		return
	}
	s.AppendGroup([][]byte{body}, keepTrying)
}

// AppendGroup journals a run of acquisition batches before the caller
// appends them to the live store: one WAL record per batch, in order, and
// one durability step (fsync or timer arm, per policy) for the run. Each
// batch is its encoded frame records at the session's width — the bytes
// wire.CheckBatch returned, with any replayed prefix sliced off — which the
// WAL frames without decoding. The frames count toward the session's
// processed order whether or not the write lands, so snapshot watermarks
// stay truthful even while durability is shed.
//
// On a write failure the behaviour follows Config.Degrade: DegradeBlock
// retries (stalling the caller — the bounded ingest queue then applies
// device backpressure) for as long as keepTrying returns true, then
// degrades; DegradeShed degrades immediately. A retry resumes at the first
// record that did not reach the log whole. Degradation is reported once
// through the Observer.
func (s *Session) AppendGroup(group [][]byte, keepTrying func() bool) {
	frameSize := wire.FrameSize(s.width)
	start := s.processed.Load()
	end := start
	for _, frames := range group {
		end += uint64(len(frames) / frameSize)
	}
	s.processed.Store(end)
	if s.degraded.Load() {
		return
	}
	for {
		landed, err := s.wal.append(start, group, s.width)
		if err == nil {
			return
		}
		for _, frames := range group[:landed] {
			start += uint64(len(frames) / frameSize)
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
	if s.degraded.CompareAndSwap(false, true) && s.cfg.Observer.Degraded != nil {
		s.cfg.Observer.Degraded()
	}
}

// ClientSeq returns the session's acknowledged client-stream watermark:
// the offset below which every frame the device sent has been either
// journaled or knowingly shed. It equals Processed unless load shedding
// dropped acknowledged frames, and it is the resume point a reconnecting
// v4 device is told about (Welcome.AckSeq).
func (s *Session) ClientSeq() uint64 {
	if c := s.clientSeq.Load(); c > s.processed.Load() {
		return c
	}
	return s.processed.Load()
}

// RecordAck persists a client-stream watermark that ran ahead of the
// journaled frame count — the server acknowledged frames (as shed) that
// will never reach the log. Best-effort: losing the record merely lets a
// resuming device re-offer those frames, and the second offer may even
// store them.
func (s *Session) RecordAck(clientSeq uint64) {
	if clientSeq <= s.clientSeq.Load() {
		return
	}
	s.clientSeq.Store(clientSeq)
	if s.degraded.Load() {
		return
	}
	if err := s.wal.appendAck(clientSeq, s.processed.Load()); err != nil {
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

// Snapshot seals the live store, writes it atomically, truncates the WAL
// to the new watermark, and — if the session had shed durability — rotates
// onto a fresh segment to restore it.
func (s *Session) Snapshot(ls *core.LiveStore) error {
	t0 := time.Now()
	// The caller is the session's appender, so the store holds exactly
	// the processed frames: the watermark is read before sealing.
	watermark := s.processed.Load()
	st, err := ls.Seal()
	if err == nil {
		_, err = writeSnapshot(s.dir, watermark, st)
	}
	if err != nil {
		s.cfg.Logf("journal: session %s snapshot failed: %v", s.key, err)
		if s.cfg.Observer.SnapshotError != nil {
			s.cfg.Observer.SnapshotError()
		}
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
			if s.cfg.Observer.Healed != nil {
				s.cfg.Observer.Healed()
			}
		}
	}
	if s.cfg.Observer.SnapshotSeconds != nil {
		s.cfg.Observer.SnapshotSeconds(time.Since(t0).Seconds())
	}
	return nil
}

// Close makes the session durable one final time and releases its files:
// a final snapshot if frames arrived since the last one (falling back to a
// WAL sync if the snapshot fails), then the WAL is closed.
func (s *Session) Close(ls *core.LiveStore) error {
	var err error
	if ls != nil && s.processed.Load() > s.snapFrames.Load() {
		if serr := s.Snapshot(ls); serr != nil {
			err = serr
			if ferr := s.wal.sync(); ferr != nil {
				s.cfg.Logf("journal: session %s final sync failed: %v", s.key, ferr)
			}
		}
	}
	if cerr := s.wal.close(); err == nil {
		err = cerr
	}
	return err
}
