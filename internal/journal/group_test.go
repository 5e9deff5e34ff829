package journal

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"

	"aims/internal/core"
	"aims/internal/stream"
)

// groupOf cuts frames [start, start+n*per) into n batches of per frames,
// binned in the seqMeta shape.
func groupOf(n, per, channels int, start uint64) [][]byte {
	return binGroup(seqBinner(channels), n, per, start)
}

// binGroup is groupOf binned through bn.
func binGroup(bn *core.Binner, n, per int, start uint64) [][]byte {
	group := make([][]byte, n)
	for i := range group {
		group[i], _ = bn.BinFrames(testFrames(per, bn.Channels(), start+uint64(i*per)), nil)
	}
	return group
}

// recordBytes returns the WAL bytes of the record of a lone batch.
func recordBytes(bins []byte) int { return len(appendBinsRecord(nil, 0, bins)) }

// wantExactlyOnce fails unless got is frames [0, n) of the testFrames
// stream in order: nothing lost, nothing replayed twice.
func wantExactlyOnce(t *testing.T, got []stream.Frame, n int) {
	t.Helper()
	if len(got) != n {
		t.Fatalf("replayed %d frames, want %d", len(got), n)
	}
	for i, f := range got {
		if f.Values[0] != float64(i) {
			t.Fatalf("frame %d carries value %v: the stream was reordered or repeated", i, f.Values[0])
		}
	}
}

// TestWALGroupBytesMatchOneAtATime: however a stream of batches is cut
// into groups, the segments hold the bytes the batch-at-a-time log holds —
// same records, same rotation points — including groups long enough to
// overflow the write scratch and to span several segments.
func TestWALGroupBytesMatchOneAtATime(t *testing.T) {
	const batches, per, channels = 60, 256, 32 // 16 KB records: 16 fill the scratch
	write := func(groupLen int) map[string][]byte {
		dir := t.TempDir()
		cfg := Config{Dir: dir, SegmentBytes: 200 << 10}.withDefaults()
		w, err := openWAL(dir, 0, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for at := 0; at < batches; at += groupLen {
			n := min(groupLen, batches-at)
			if landed, err := w.append(uint64(at*per), groupOf(n, per, channels, uint64(at*per))); err != nil || landed != n {
				t.Fatalf("group of %d at batch %d: landed %d, err %v", n, at, landed, err)
			}
		}
		if cap(w.scratch) > walScratchBytes+32<<10 {
			t.Fatalf("groups of %d grew the write scratch to %d bytes, past the %d cap plus a record", groupLen, cap(w.scratch), walScratchBytes)
		}
		if err := w.close(); err != nil {
			t.Fatal(err)
		}
		got, res := collect(t, dir, 0, channels)
		if res.truncated {
			t.Fatal("clean log replayed as truncated")
		}
		wantExactlyOnce(t, got, batches*per)
		return dirBytes(t, dir)
	}
	want := write(1)
	if len(want) < 4 {
		t.Fatalf("only %d segments: the stream was meant to rotate", len(want))
	}
	for _, groupLen := range []int{2, 7, 16, batches} {
		got := write(groupLen)
		if len(got) != len(want) {
			t.Fatalf("groups of %d wrote %d segments, one at a time wrote %d", groupLen, len(got), len(want))
		}
		for name, b := range want {
			if !bytes.Equal(got[name], b) {
				t.Fatalf("groups of %d: %s differs from the one-at-a-time log (%d vs %d bytes)", groupLen, name, len(got[name]), len(b))
			}
		}
	}
}

// TestWALGroupSyncsOncePerGroup: a group costs one fsync, whatever its
// length; a group that fills a segment pays one more for the segment it
// leaves.
func TestWALGroupSyncsOncePerGroup(t *testing.T) {
	dir := t.TempDir()
	plan := NewFaultPlan()
	cfg := Config{Dir: dir, OpenFile: plan.Open}.withDefaults()
	w, err := openWAL(dir, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var next uint64
	for _, n := range []int{1, 4, 16, 1} {
		before := plan.Syncs()
		if _, err := w.append(next, groupOf(n, 8, 2, next)); err != nil {
			t.Fatal(err)
		}
		next += uint64(n * 8)
		if got := plan.Syncs() - before; got != 1 {
			t.Fatalf("group of %d batches cost %d fsyncs, want 1", n, got)
		}
	}
	w.close()

	dir = t.TempDir()
	plan = NewFaultPlan()
	cfg = Config{Dir: dir, SegmentBytes: 1024, OpenFile: plan.Open}.withDefaults()
	if w, err = openWAL(dir, 0, cfg); err != nil {
		t.Fatal(err)
	}
	// 8 records of 205 bytes: the sixth finds the first segment full.
	if _, err := w.append(0, groupOf(8, 8, 11, 0)); err != nil {
		t.Fatal(err)
	}
	if seqs, _ := listSegments(dir); len(seqs) != 2 {
		t.Fatalf("group wrote %d segments, want 2", len(seqs))
	}
	if got := plan.Syncs(); got != 2 {
		t.Fatalf("group spanning two segments cost %d fsyncs, want one each", got)
	}
	w.close()
}

// TestGroupTornInsideThirdRecordResumesThere tears a five-record group
// inside its third record. The retry must resume at that record on a fresh
// segment — the two that landed whole are not written again — and after
// more appends a recovery sees every frame exactly once.
func TestGroupTornInsideThirdRecordResumesThere(t *testing.T) {
	dir := t.TempDir()
	plan := NewFaultPlan()
	cfg := Config{Dir: dir, SnapshotFrames: -1, Degrade: DegradeBlock, OpenFile: plan.Open}
	m, _ := OpenManager(cfg)
	sess, _, err := m.Attach(seqMeta("group", 2))
	if err != nil {
		t.Fatal(err)
	}
	sess.AppendFrames(testFrames(10, 2, 0), nil)
	recBytes := int64(recordBytes(groupOf(1, 10, 2, 10)[0])) // one 10-frame, 2-channel record
	plan.TearAt(plan.Written() + 2*recBytes + 13)
	tries := 0
	sess.AppendGroup(groupOf(5, 10, 2, 10), func() bool {
		tries++
		if tries == 2 {
			plan.Heal()
		}
		return tries < 10
	})
	if sess.Degraded() || tries != 2 {
		t.Fatalf("degraded=%v after %d retries, want the group to land on the second", sess.Degraded(), tries)
	}
	sess.AppendGroup(groupOf(2, 10, 2, 60), nil)
	if got := sess.Processed(); got != 80 {
		t.Fatalf("processed = %d, want 80", got)
	}
	// Crash. The first segment ends in the torn third record; the second
	// must open at frame 30, where the retry resumed.
	sdir := filepath.Join(dir, "group")
	seqs, _ := listSegments(sdir)
	if len(seqs) != 2 {
		t.Fatalf("%d segments, want the torn one and its successor", len(seqs))
	}
	if first, err := readSegmentFirstFrame(filepath.Join(sdir, segName(seqs[1]))); err != nil || first != 30 {
		t.Fatalf("retry segment opens at frame %d (err %v), want 30", first, err)
	}
	got, res := collect(t, sdir, 0, 2)
	if !res.truncated || res.processed != 80 {
		t.Fatalf("truncated=%v processed=%d, want the torn tail cut and 80 frames", res.truncated, res.processed)
	}
	wantExactlyOnce(t, got, 80)
	// The cut is physical: a second replay is clean and sees the same.
	got, res = collect(t, sdir, 0, 2)
	if res.truncated {
		t.Fatal("second replay still truncating")
	}
	wantExactlyOnce(t, got, 80)
}

// TestGroupFailedSyncRetriesTheSyncAlone: every record of the group landed
// but its fsync failed. Under the block policy the retry repeats the
// durability step — not the records, which would rewind the frame index —
// until it succeeds; under the shed policy the session degrades at once.
// Either way the processed count covers the whole group.
func TestGroupFailedSyncRetriesTheSyncAlone(t *testing.T) {
	for _, policy := range []DegradePolicy{DegradeBlock, DegradeShed} {
		dir := t.TempDir()
		plan := NewFaultPlan()
		cfg := Config{Dir: dir, SnapshotFrames: -1, Degrade: policy, OpenFile: plan.Open}
		m, _ := OpenManager(cfg)
		sess, _, err := m.Attach(seqMeta("sync", 2))
		if err != nil {
			t.Fatal(err)
		}
		sess.AppendFrames(testFrames(10, 2, 0), nil)
		plan.FailSync(errors.New("injected fsync failure"))
		before, written := plan.Syncs(), plan.Written()
		tries := 0
		sess.AppendGroup(groupOf(4, 10, 2, 10), func() bool {
			tries++
			if tries == 3 {
				plan.FailSync(nil)
			}
			return tries < 10
		})
		if got := sess.Processed(); got != 50 {
			t.Fatalf("policy %d: processed = %d, want 50", policy, got)
		}
		if policy == DegradeShed {
			if !sess.Degraded() || tries != 0 {
				t.Fatalf("shed policy: degraded=%v after %d retries, want degraded at once", sess.Degraded(), tries)
			}
			continue
		}
		if sess.Degraded() {
			t.Fatal("block policy degraded although the sync came back")
		}
		// The failed attempt and three retries, the last one succeeding —
		// and not a byte written after the first attempt.
		if got := plan.Syncs() - before; got != 4 {
			t.Fatalf("group synced %d times, want 4", got)
		}
		recBytes := int64(recordBytes(groupOf(1, 10, 2, 10)[0]))
		if got := plan.Written() - written; got != 4*recBytes {
			t.Fatalf("group wrote %d bytes, want its four records once (%d)", got, 4*recBytes)
		}
		sess.AppendGroup(groupOf(1, 10, 2, 50), nil)
		got, res := collect(t, filepath.Join(dir, "sync"), 0, 2)
		if res.truncated {
			t.Fatal("log replayed as truncated: the retry rewrote a record")
		}
		wantExactlyOnce(t, got, 60)
	}
}

// TestGroupShedMidGroupKeepsCountTruthful: a dead disk under the shed
// policy loses the tail of the group it struck, and the processed count —
// the next snapshot's watermark — still covers every frame handed in.
func TestGroupShedMidGroupKeepsCountTruthful(t *testing.T) {
	dir := t.TempDir()
	plan := NewFaultPlan()
	cfg := Config{Dir: dir, SnapshotFrames: -1, Degrade: DegradeShed, OpenFile: plan.Open}
	m, _ := OpenManager(cfg)
	meta := testMeta("shed", 2)
	sess, _, err := m.Attach(meta)
	if err != nil {
		t.Fatal(err)
	}
	ls, _ := core.NewLiveStore(meta.Mins, meta.Maxs, testStoreCfg)
	group := binGroup(ls.Binner(), 5, 10, 0)
	plan.TearAt(plan.Written() + 2*int64(recordBytes(group[0])) + 13)
	sess.AppendGroup(group, nil)
	for _, b := range group {
		ls.AppendBins(b)
	}
	if !sess.Degraded() || sess.Processed() != 50 {
		t.Fatalf("degraded=%v processed=%d, want degraded with all 50 counted", sess.Degraded(), sess.Processed())
	}
	// A snapshot heals the session onto a fresh segment at its watermark,
	// past the torn tail; frames journaled after that must survive a crash
	// that happens before the next snapshot retires the torn segment.
	plan.Heal()
	if err := sess.Snapshot(ls); err != nil {
		t.Fatal(err)
	}
	if sess.Degraded() {
		t.Fatal("snapshot did not heal the session")
	}
	ingest(t, sess, ls, testFrames(10, 2, 50))

	m2, _ := OpenManager(Config{Dir: dir, SnapshotFrames: -1})
	recovered, err := m2.Recover(testStoreCfg)
	if err != nil || len(recovered) != 1 {
		t.Fatalf("recover: %v (%d)", err, len(recovered))
	}
	if r := recovered[0]; r.Watermark != 50 || r.Processed != 60 {
		t.Fatalf("watermark=%d processed=%d, want the snapshot's 50 plus the 10 journaled after it", r.Watermark, r.Processed)
	}
	queriesMatch(t, ls, recovered[0].Store, 2)
}

// TestReplayDropsLaterSegmentsItCannotProveGapFree: the continuation past
// a cut applies only when the next segment's header proves nothing is
// missing. A record lost mid-segment leaves the next segment starting
// beyond the expected frame, and it is dropped as before.
func TestReplayDropsLaterSegmentsItCannotProveGapFree(t *testing.T) {
	dir := t.TempDir()
	plan := NewFaultPlan()
	cfg := Config{Dir: dir, SegmentBytes: 1024, OpenFile: plan.Open}.withDefaults()
	w, err := openWAL(dir, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 205-byte records, five to a segment; the flip lands in the third.
	group := groupOf(12, 8, 11, 0)
	plan.FlipBit(plan.Written()+2*int64(recordBytes(group[0]))+40, 0x04)
	if _, err := w.append(0, group); err != nil {
		t.Fatal(err)
	}
	w.close()
	if seqs, _ := listSegments(dir); len(seqs) != 3 {
		t.Fatalf("%d segments, want 3", len(seqs))
	}
	got, res := collect(t, dir, 0, 11)
	if !res.truncated || res.processed != 16 {
		t.Fatalf("truncated=%v processed=%d, want the log cut at frame 16", res.truncated, res.processed)
	}
	wantExactlyOnce(t, got, 16)
	if seqs, _ := listSegments(dir); len(seqs) != 1 {
		t.Fatalf("%d segments survive a mid-log flip, want only the cut one", len(seqs))
	}
}
