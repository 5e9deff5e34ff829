package journal

import (
	"path/filepath"
	"testing"

	"aims/internal/core"
)

// TestWALAckRecordRoundTrip appends frame records interleaved with client
// acknowledgement watermarks (the recAck records written when acked frames
// diverge from journaled frames, e.g. after shedding) and checks replay
// surfaces the highest watermark without disturbing the frame stream.
func TestWALAckRecordRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir}.withDefaults()
	w, err := openWAL(dir, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := appendOne(w, 0, testFrames(10, 2, 0), 2); err != nil {
		t.Fatal(err)
	}
	if err := w.appendAck(ackMark{7, 10}, 10); err != nil {
		t.Fatal(err)
	}
	if err := appendOne(w, 10, testFrames(10, 2, 10), 2); err != nil {
		t.Fatal(err)
	}
	// An ack beyond the journaled stream: the server acknowledged frames it
	// then shed, so the client watermark runs ahead of durability.
	if err := w.appendAck(ackMark{25, 20}, 20); err != nil {
		t.Fatal(err)
	}
	if err := w.appendAck(ackMark{3, 20}, 20); err != nil { // stale ack never regresses it
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
	cfg := Config{Dir: dir, SegmentBytes: 512}.withDefaults()
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
		if err := w.appendAck(ackMark{next, next}, next); err != nil {
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
	cfg := Config{Dir: dir}.withDefaults()
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
	res2, err := replayWAL(dir, 150, seqBinner(2), func(start uint64, bins []byte) {
		starts = append(starts, start)
		got := decodeBins(bins, 2, 2)
		if got[0].Values[0] != 150 {
			t.Fatalf("straddle replay resumes at frame %v, want 150", got[0].Values[0])
		}
		frames += len(got)
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
	cfg := Config{Dir: dir, SnapshotFrames: -1}
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
	sess.RecordAck(150, 100) // 50 acked frames were shed, never journaled
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

// TestCloseDropsCoveredLog: a Close whose final snapshot covers every
// frame deletes the log, so the next Load reads the snapshot alone. An ack
// watermark past the frames survives the deletion in an ack-only segment.
func TestCloseDropsCoveredLog(t *testing.T) {
	dir := t.TempDir()
	m, err := OpenManager(Config{Dir: dir, SnapshotFrames: -1})
	if err != nil {
		t.Fatal(err)
	}
	meta := testMeta("leaver", 2)
	sess, _, err := m.Attach(meta)
	if err != nil {
		t.Fatal(err)
	}
	ls, _ := core.NewLiveStore(meta.Mins, meta.Maxs, testStoreCfg)
	ingest(t, sess, ls, sineFrames(100, 2, 0))
	if err := sess.Close(ls); err != nil {
		t.Fatal(err)
	}
	sessDir := filepath.Join(dir, key(meta.Name))
	if seqs, _ := listSegments(sessDir); len(seqs) != 0 {
		t.Fatalf("%d WAL segments left after a covering close, want 0", len(seqs))
	}
	r, err := m.Load(meta.Name, testStoreCfg)
	if err != nil || r.Processed != 100 || r.Watermark != 100 || r.AckSeq != 100 {
		t.Fatalf("load: %+v err=%v, want 100 frames, all from the snapshot", r, err)
	}

	sess, err = m.Resume(r)
	if err != nil {
		t.Fatal(err)
	}
	sess.RecordAck(150, 100) // 50 acked frames shed
	if err := sess.Close(r.Store); err != nil {
		t.Fatal(err)
	}
	if seqs, _ := listSegments(sessDir); len(seqs) != 1 {
		t.Fatalf("%d WAL segments after a close past a shed, want the ack's 1", len(seqs))
	}
	r, err = m.Load(meta.Name, testStoreCfg)
	if err != nil || r.Processed != 100 || r.AckSeq != 150 {
		t.Fatalf("load: %+v err=%v, want 100 frames acknowledged to 150", r, err)
	}
}

// TestAckPastProcessedIsIgnored: an ack mark whose frame index lies past
// the frames the journal holds was recorded while frames before that index
// still waited for the appender, and a crash lost them. Recovery ignores
// the mark — its gap would count the lost frames as shed — and the device
// replays from the journaled frames.
func TestAckPastProcessedIsIgnored(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, SnapshotFrames: -1}
	m, err := OpenManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	meta := testMeta("ahead", 2)
	sess, _, err := m.Attach(meta)
	if err != nil {
		t.Fatal(err)
	}
	ls, _ := core.NewLiveStore(meta.Mins, meta.Maxs, testStoreCfg)
	ingest(t, sess, ls, sineFrames(100, 2, 0))
	// 20 enqueued frames, [100,120), never reached the log; 30 more were shed.
	sess.RecordAck(150, 120)
	// Crash without Close.

	m2, _ := OpenManager(cfg)
	r, err := m2.Load(meta.Name, testStoreCfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Processed != 100 || r.AckSeq != 100 {
		t.Fatalf("recovered processed=%d ack=%d, want the device to replay from 100", r.Processed, r.AckSeq)
	}
}
