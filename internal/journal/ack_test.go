package journal

import (
	"testing"

	"aims/internal/core"
)

// TestWALAckRecordRoundTrip appends frame records interleaved with client
// acknowledgement watermarks (the recAck records written when acked frames
// diverge from journaled frames, e.g. after shedding) and checks replay
// surfaces the highest watermark without disturbing the frame stream.
func TestWALAckRecordRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, Fsync: FsyncBatch}.withDefaults()
	w, err := openWAL(dir, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := appendOne(w, 0, testFrames(10, 2, 0), 2); err != nil {
		t.Fatal(err)
	}
	if err := w.appendAck(7, 10); err != nil {
		t.Fatal(err)
	}
	if err := appendOne(w, 10, testFrames(10, 2, 10), 2); err != nil {
		t.Fatal(err)
	}
	// An ack beyond the journaled stream: the server acknowledged frames it
	// then shed, so the client watermark runs ahead of durability.
	if err := w.appendAck(25, 20); err != nil {
		t.Fatal(err)
	}
	if err := w.appendAck(3, 20); err != nil { // stale ack never regresses it
		t.Fatal(err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}

	got, res := collect(t, dir, 0, 2)
	if len(got) != 20 || res.processed != 20 || res.truncated {
		t.Fatalf("replayed %d frames (processed=%d truncated=%v), want 20", len(got), res.processed, res.truncated)
	}
	if res.ackSeq != 25 {
		t.Fatalf("replayed ackSeq = %d, want 25", res.ackSeq)
	}
}

// TestWALAckRotatesSegments forces an ack record to trigger segment
// rotation and checks the new segment's header carries the right first
// frame, so the rotated log still replays cleanly.
func TestWALAckRotatesSegments(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, Fsync: FsyncOff, SegmentBytes: 512}.withDefaults()
	w, err := openWAL(dir, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var next uint64
	for i := 0; i < 30; i++ {
		if err := appendOne(w, next, testFrames(4, 2, next), 2); err != nil {
			t.Fatal(err)
		}
		next += 4
		if err := w.appendAck(next, next); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	if seqs, _ := listSegments(dir); len(seqs) < 2 {
		t.Fatalf("expected rotation with 512-byte segments, got %d", len(seqs))
	}
	got, res := collect(t, dir, 0, 2)
	if uint64(len(got)) != next || res.truncated {
		t.Fatalf("replayed %d/%d frames (truncated=%v)", len(got), next, res.truncated)
	}
	if res.ackSeq != next {
		t.Fatalf("ackSeq = %d, want %d", res.ackSeq, next)
	}
}

// TestReplayTrailingDuplicateIsDropped pins the replay-dedup invariant at
// the journal layer: when the recovery watermark (a snapshot's frame
// count) already covers the log's trailing record, replay must deliver
// nothing from it — not an overlap error, not a double apply.
func TestReplayTrailingDuplicateIsDropped(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, Fsync: FsyncBatch}.withDefaults()
	w, err := openWAL(dir, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := appendOne(w, 0, testFrames(100, 2, 0), 2); err != nil {
		t.Fatal(err)
	}
	if err := appendOne(w, 100, testFrames(100, 2, 100), 2); err != nil {
		t.Fatal(err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}

	// Snapshot watermark 200: both records are already applied.
	got, res := collect(t, dir, 200, 2)
	if len(got) != 0 {
		t.Fatalf("replay past full watermark delivered %d frames, want 0", len(got))
	}
	if res.processed != 200 || res.truncated {
		t.Fatalf("processed=%d truncated=%v, want 200/false", res.processed, res.truncated)
	}

	// Watermark mid-record: the straddling trailer is trimmed to its fresh
	// suffix and replay resumes exactly at the watermark.
	var starts []uint64
	var frames int
	res2, err := replayWAL(dir, 150, 2, func(start uint64, fr []byte) error {
		starts = append(starts, start)
		frames += len(decodeFrames(fr, 2))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(starts) != 1 || starts[0] != 150 || frames != 50 {
		t.Fatalf("straddle replay: starts=%v frames=%d, want one delivery of 50 at 150", starts, frames)
	}
	if res2.processed != 200 {
		t.Fatalf("straddle processed = %d, want 200", res2.processed)
	}
}

// TestRecoverCarriesAckWatermark: a session that recorded a client ack
// beyond its journaled frames (shed divergence) must hand that watermark
// back after a crash, so a resuming device is not asked to replay frames
// the server already acknowledged and consciously dropped.
func TestRecoverCarriesAckWatermark(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, Fsync: FsyncBatch, SnapshotFrames: -1}
	m, err := OpenManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	meta := testMeta("shedder", 2)
	sess, _, err := m.Attach(meta)
	if err != nil {
		t.Fatal(err)
	}
	ls, _ := core.NewLiveStore(meta.Mins, meta.Maxs, testStoreCfg)
	ingest(t, sess, ls, sineFrames(100, 2, 0))
	sess.RecordAck(150) // 50 acked frames were shed, never journaled
	if got := sess.ClientSeq(); got != 150 {
		t.Fatalf("live ClientSeq = %d, want 150", got)
	}
	// Crash without Close.

	m2, _ := OpenManager(cfg)
	recovered, err := m2.Recover(testStoreCfg)
	if err != nil || len(recovered) != 1 {
		t.Fatalf("recover: %v (%d)", err, len(recovered))
	}
	r := recovered[0]
	if r.Processed != 100 {
		t.Fatalf("processed = %d, want 100", r.Processed)
	}
	if r.AckSeq != 150 {
		t.Fatalf("recovered AckSeq = %d, want 150", r.AckSeq)
	}
	// Resuming threads the watermark into the live session.
	sess2, err := m2.Resume(r)
	if err != nil {
		t.Fatalf("resume after recover: %v", err)
	}
	if got := sess2.ClientSeq(); got != 150 {
		t.Fatalf("adopted ClientSeq = %d, want 150", got)
	}
}
