package journal

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"aims/internal/core"
	"aims/internal/stream"
)

var testStoreCfg = core.LiveStoreConfig{
	Rate:        100,
	TimeBuckets: 32,
	ValueBins:   32,
}

func testMeta(name string, channels int) Meta {
	mins := make([]float64, channels)
	maxs := make([]float64, channels)
	for c := range mins {
		mins[c], maxs[c] = -50, 1050
	}
	return Meta{
		Name: name, Rate: 100, HorizonTicks: 3200,
		TimeBuckets: 32, ValueBins: 32, Mins: mins, Maxs: maxs,
	}
}

func sineFrames(n, channels int, start uint64) []stream.Frame {
	frames := make([]stream.Frame, n)
	for i := range frames {
		vals := make([]float64, channels)
		for c := range vals {
			vals[c] = 500 + 400*math.Sin(float64(start+uint64(i))/17+float64(c))
		}
		frames[i] = stream.Frame{T: float64(start+uint64(i)) / 100, Values: vals}
	}
	return frames
}

// ingest pushes frames through the durability path and the live store the
// way the server's consumer does.
func ingest(t *testing.T, s *Session, ls *core.LiveStore, frames []stream.Frame) {
	t.Helper()
	s.AppendFrames(frames, nil)
	if _, err := ls.AppendFrames(frames); err != nil {
		t.Fatal(err)
	}
	s.MaybeSnapshot(ls)
}

func queriesMatch(t *testing.T, a, b *core.LiveStore, channels int) {
	t.Helper()
	if a.Frames() != b.Frames() {
		t.Fatalf("frames %d vs %d", a.Frames(), b.Frames())
	}
	for ch := 0; ch < channels; ch++ {
		n1, _ := a.CountSamples(ch, 0, 32)
		n2, _ := b.CountSamples(ch, 0, 32)
		if n1 != n2 {
			t.Fatalf("ch %d count %v vs %v", ch, n1, n2)
		}
		v1, ok1, _ := a.AverageValue(ch, 0, 32)
		v2, ok2, _ := b.AverageValue(ch, 0, 32)
		if ok1 != ok2 || math.Abs(v1-v2) > 1e-9 {
			t.Fatalf("ch %d average %v vs %v", ch, v1, v2)
		}
	}
}

// TestRecoverWALOnly crashes (no Close, no snapshot) and recovers purely
// from the WAL.
func TestRecoverWALOnly(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, Fsync: FsyncBatch, SnapshotFrames: -1}
	m, err := OpenManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess, prior, err := m.Attach(testMeta("glove", 3))
	if err != nil || prior != nil {
		t.Fatalf("attach: %v (prior=%v)", err, prior)
	}
	ls, _ := core.NewLiveStore(testMeta("glove", 3).Mins, testMeta("glove", 3).Maxs, testStoreCfg)
	for i := 0; i < 6; i++ {
		ingest(t, sess, ls, sineFrames(50, 3, uint64(i*50)))
	}
	// Crash: the manager and session simply vanish.

	m2, err := OpenManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recovered, err := m2.Recover(testStoreCfg)
	if err != nil || len(recovered) != 1 {
		t.Fatalf("recover: %v (%d sessions)", err, len(recovered))
	}
	r := recovered[0]
	if r.Processed != 300 || r.Truncated {
		t.Fatalf("recovered processed=%d truncated=%v", r.Processed, r.Truncated)
	}
	queriesMatch(t, ls, r.Store, 3)
}

// TestRecoverSnapshotPlusTail snapshots mid-stream, keeps ingesting, then
// crashes: recovery must load the snapshot and replay only the tail.
func TestRecoverSnapshotPlusTail(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, Fsync: FsyncBatch, SnapshotFrames: -1}
	m, err := OpenManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	meta := testMeta("classroom", 2)
	sess, _, err := m.Attach(meta)
	if err != nil {
		t.Fatal(err)
	}
	ls, _ := core.NewLiveStore(meta.Mins, meta.Maxs, testStoreCfg)
	ingest(t, sess, ls, sineFrames(200, 2, 0))
	if err := sess.Snapshot(ls); err != nil {
		t.Fatal(err)
	}
	ingest(t, sess, ls, sineFrames(120, 2, 200))
	// Crash here: 200 frames in the snapshot, 120 in the WAL tail.

	m2, _ := OpenManager(cfg)
	recovered, err := m2.Recover(testStoreCfg)
	if err != nil || len(recovered) != 1 {
		t.Fatalf("recover: %v (%d)", err, len(recovered))
	}
	r := recovered[0]
	if r.Watermark != 200 || r.Processed != 320 {
		t.Fatalf("watermark=%d processed=%d", r.Watermark, r.Processed)
	}
	queriesMatch(t, ls, r.Store, 2)
}

// TestRecoverCorruptSnapshotFallsBack flips a byte in the newest snapshot;
// recovery must reject it by CRC and rebuild from the full WAL instead.
func TestRecoverCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, Fsync: FsyncBatch, SnapshotFrames: -1}
	m, _ := OpenManager(cfg)
	meta := testMeta("tracker", 2)
	sess, _, err := m.Attach(meta)
	if err != nil {
		t.Fatal(err)
	}
	ls, _ := core.NewLiveStore(meta.Mins, meta.Maxs, testStoreCfg)
	ingest(t, sess, ls, sineFrames(150, 2, 0))
	if err := sess.Snapshot(ls); err != nil {
		t.Fatal(err)
	}
	ingest(t, sess, ls, sineFrames(50, 2, 150))

	// Corrupt the snapshot on disk. The WAL still holds every frame (a
	// single segment is never truncated), so recovery loses nothing.
	sdir := filepath.Join(dir, "tracker")
	entries, _ := os.ReadDir(sdir)
	corrupted := false
	for _, e := range entries {
		if _, _, ok := parseSnapName(e.Name()); ok {
			p := filepath.Join(sdir, e.Name())
			b, _ := os.ReadFile(p)
			b[len(b)/3] ^= 0x40
			os.WriteFile(p, b, 0o644)
			corrupted = true
		}
	}
	if !corrupted {
		t.Fatal("no snapshot found to corrupt")
	}

	m2, _ := OpenManager(cfg)
	recovered, err := m2.Recover(testStoreCfg)
	if err != nil || len(recovered) != 1 {
		t.Fatalf("recover: %v (%d)", err, len(recovered))
	}
	r := recovered[0]
	if r.Watermark != 0 || r.Processed != 200 {
		t.Fatalf("watermark=%d processed=%d (want WAL-only rebuild)", r.Watermark, r.Processed)
	}
	queriesMatch(t, ls, r.Store, 2)
}

// TestRecoverTornTail tears a WAL write mid-record before the crash; the
// recovered store must hold exactly the intact prefix, and the session
// must keep working after adoption.
func TestRecoverTornTail(t *testing.T) {
	dir := t.TempDir()
	plan := NewFaultPlan()
	cfg := Config{Dir: dir, Fsync: FsyncOff, SnapshotFrames: -1, Degrade: DegradeShed, OpenFile: plan.Open}
	m, _ := OpenManager(cfg)
	meta := testMeta("glove", 2)
	sess, _, err := m.Attach(meta)
	if err != nil {
		t.Fatal(err)
	}
	ls, _ := core.NewLiveStore(meta.Mins, meta.Maxs, testStoreCfg)
	ingest(t, sess, ls, sineFrames(80, 2, 0))
	plan.TearAt(plan.Written() + 30)
	sess.AppendFrames(sineFrames(40, 2, 80), nil) // torn → sheds durability
	if !sess.Degraded() {
		t.Fatal("torn write did not degrade the session")
	}

	m2, _ := OpenManager(Config{Dir: dir, SnapshotFrames: -1})
	recovered, err := m2.Recover(testStoreCfg)
	if err != nil || len(recovered) != 1 {
		t.Fatalf("recover: %v (%d)", err, len(recovered))
	}
	r := recovered[0]
	if !r.Truncated || r.Processed != 80 {
		t.Fatalf("truncated=%v processed=%d, want torn tail cut at 80", r.Truncated, r.Processed)
	}
	if n, _ := r.Store.CountSamples(0, 0, 32); n != 80 {
		t.Fatalf("recovered store holds %v frames, want 80", n)
	}
}

// TestDegradeShedHealsOnSnapshot: a dead disk sheds durability, ingest
// continues, and a successful snapshot restores the journal with the full
// state (including the frames ingested while degraded).
func TestDegradeShedHealsOnSnapshot(t *testing.T) {
	dir := t.TempDir()
	plan := NewFaultPlan()
	healed := 0
	degraded := 0
	cfg := Config{
		Dir: dir, Fsync: FsyncBatch, SnapshotFrames: -1, Degrade: DegradeShed,
		OpenFile: plan.Open,
		Observer: Observer{
			Degraded: func() { degraded++ },
			Healed:   func() { healed++ },
		},
	}
	m, _ := OpenManager(cfg)
	meta := testMeta("suit", 2)
	sess, _, err := m.Attach(meta)
	if err != nil {
		t.Fatal(err)
	}
	ls, _ := core.NewLiveStore(meta.Mins, meta.Maxs, testStoreCfg)
	ingest(t, sess, ls, sineFrames(60, 2, 0))

	plan.TearAt(plan.Written()) // disk dies
	sess.AppendFrames(sineFrames(60, 2, 60), nil)
	if _, err := ls.AppendFrames(sineFrames(60, 2, 60)); err != nil {
		t.Fatal(err)
	}
	if !sess.Degraded() || degraded != 1 {
		t.Fatalf("degraded=%v count=%d", sess.Degraded(), degraded)
	}
	if sess.Processed() != 120 {
		t.Fatalf("processed=%d, want 120 even while degraded", sess.Processed())
	}

	plan.Heal() // disk back; snapshots land again
	if err := sess.Snapshot(ls); err != nil {
		t.Fatal(err)
	}
	if sess.Degraded() || healed != 1 {
		t.Fatalf("after snapshot: degraded=%v healed=%d", sess.Degraded(), healed)
	}
	// Post-heal frames are journaled again and recovery sees everything.
	ingest(t, sess, ls, sineFrames(30, 2, 120))
	if err := sess.Close(ls); err != nil {
		t.Fatal(err)
	}

	m2, _ := OpenManager(Config{Dir: dir, SnapshotFrames: -1})
	recovered, err := m2.Recover(testStoreCfg)
	if err != nil || len(recovered) != 1 {
		t.Fatalf("recover: %v (%d)", err, len(recovered))
	}
	if recovered[0].Processed != 150 {
		t.Fatalf("processed=%d, want 150", recovered[0].Processed)
	}
	queriesMatch(t, ls, recovered[0].Store, 2)
}

// TestDegradeBlockRetriesUntilDiskReturns: under the block policy the
// append stalls, retries, and succeeds once the disk heals — losslessly,
// even though the failed write left a torn record behind it.
func TestDegradeBlockRetriesUntilDiskReturns(t *testing.T) {
	dir := t.TempDir()
	plan := NewFaultPlan()
	cfg := Config{Dir: dir, Fsync: FsyncOff, SnapshotFrames: -1, Degrade: DegradeBlock, OpenFile: plan.Open}
	m, _ := OpenManager(cfg)
	meta := testMeta("cave", 1)
	sess, _, err := m.Attach(meta)
	if err != nil {
		t.Fatal(err)
	}
	sess.AppendFrames(sineFrames(10, 1, 0), nil)
	plan.TearAt(plan.Written() + 13) // 13 bytes into the second record
	tries := 0
	sess.AppendFrames(sineFrames(10, 1, 10), func() bool {
		tries++
		if tries == 3 {
			plan.Heal()
		}
		return tries < 10
	})
	if sess.Degraded() {
		t.Fatal("block policy degraded despite disk healing")
	}
	sess.AppendFrames(sineFrames(10, 1, 20), nil)
	sess.Close(nil)

	// The second batch was torn mid-record, then retried whole on a fresh
	// segment, and a third followed it there; replay must cut the torn
	// tail, carry on into that segment, and see all 30 frames exactly once.
	m2, _ := OpenManager(Config{Dir: dir, SnapshotFrames: -1})
	recovered, err := m2.Recover(testStoreCfg)
	if err != nil || len(recovered) != 1 {
		t.Fatalf("recover: %v (%d)", err, len(recovered))
	}
	if !recovered[0].Truncated || recovered[0].Processed != 30 {
		t.Fatalf("truncated=%v processed=%d, want the torn tail cut and 30 frames", recovered[0].Truncated, recovered[0].Processed)
	}
	if n, _ := recovered[0].Store.CountSamples(0, 0, 32); n != 30 {
		t.Fatalf("recovered %v frames, want 30", n)
	}
}

// TestAttachAdoptsRecoveredSession: after recovery, a device registering
// the same session name with a matching shape resumes its session.
func TestAttachAdoptsRecoveredSession(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, Fsync: FsyncBatch, SnapshotFrames: -1}
	m, _ := OpenManager(cfg)
	meta := testMeta("glove", 2)
	sess, _, err := m.Attach(meta)
	if err != nil {
		t.Fatal(err)
	}
	ls, _ := core.NewLiveStore(meta.Mins, meta.Maxs, testStoreCfg)
	ingest(t, sess, ls, sineFrames(70, 2, 0))
	if err := sess.Close(ls); err != nil {
		t.Fatal(err)
	}

	m2, _ := OpenManager(cfg)
	if _, err := m2.Recover(testStoreCfg); err != nil {
		t.Fatal(err)
	}
	if m2.OrphanCount() != 1 {
		t.Fatalf("orphans=%d", m2.OrphanCount())
	}
	sess2, store, err := m2.Attach(meta)
	if err != nil {
		t.Fatal(err)
	}
	if !sess2.Resumed() || store == nil {
		t.Fatalf("resumed=%v store=%v", sess2.Resumed(), store != nil)
	}
	if m2.OrphanCount() != 0 {
		t.Fatal("orphan not consumed")
	}
	if sess2.Processed() != 70 {
		t.Fatalf("resumed processed=%d", sess2.Processed())
	}
	queriesMatch(t, ls, store, 2)
	// Continued ingest journals onto the adopted session.
	ingest(t, sess2, store, sineFrames(30, 2, 70))
	sess2.Close(store)

	m3, _ := OpenManager(cfg)
	recovered, _ := m3.Recover(testStoreCfg)
	if len(recovered) != 1 || recovered[0].Processed != 100 {
		t.Fatalf("final recovery: %d sessions, processed=%d", len(recovered), recovered[0].Processed)
	}

	// A shape mismatch must NOT adopt: same name, different channel count.
	m4, _ := OpenManager(cfg)
	m4.Recover(testStoreCfg)
	other := testMeta("glove", 3)
	sess4, store4, err := m4.Attach(other)
	if err != nil {
		t.Fatal(err)
	}
	if sess4.Resumed() || store4 != nil {
		t.Fatal("mismatched shape adopted a recovered session")
	}
	sess4.Close(nil)
}

// TestAttachDuplicateNamesGetDistinctKeys: two live sessions registering
// the same name coexist under distinct directories.
func TestAttachDuplicateNamesGetDistinctKeys(t *testing.T) {
	m, err := OpenManager(Config{Dir: t.TempDir(), Fsync: FsyncOff, SnapshotFrames: -1})
	if err != nil {
		t.Fatal(err)
	}
	meta := testMeta("dup", 1)
	a, _, err := m.Attach(meta)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := m.Attach(meta)
	if err != nil {
		t.Fatal(err)
	}
	if a.Key() == b.Key() {
		t.Fatalf("duplicate keys %q", a.Key())
	}
	a.Close(nil)
	b.Close(nil)
	// After release the base key is reusable.
	c, _, err := m.Attach(meta)
	if err != nil {
		t.Fatal(err)
	}
	if c.Key() != a.Key() {
		t.Fatalf("key %q not released (got %q)", a.Key(), c.Key())
	}
	c.Close(nil)
}

// TestSanitizeKey: hostile session names cannot escape the data dir.
func TestSanitizeKey(t *testing.T) {
	for name, want := range map[string]string{
		"../../etc/passwd": ".._.._etc_passwd",
		"..":               "session",
		"":                 "session",
		"glove 7/left":     "glove_7_left",
		"ok-name_1.2":      "ok-name_1.2",
	} {
		if got := sanitizeKey(name); got != want {
			t.Errorf("sanitizeKey(%q) = %q, want %q", name, got, want)
		}
	}
}

// TestSnapshotErrorKeepsWAL: when the snapshot path fails the WAL must
// remain intact so nothing is lost.
func TestSnapshotErrorKeepsWAL(t *testing.T) {
	dir := t.TempDir()
	snapErrs := 0
	cfg := Config{
		Dir: dir, Fsync: FsyncBatch, SnapshotFrames: -1,
		Observer: Observer{SnapshotError: func() { snapErrs++ }},
	}
	m, _ := OpenManager(cfg)
	meta := testMeta("frag", 1)
	sess, _, err := m.Attach(meta)
	if err != nil {
		t.Fatal(err)
	}
	ls, _ := core.NewLiveStore(meta.Mins, meta.Maxs, testStoreCfg)
	ingest(t, sess, ls, sineFrames(40, 1, 0))
	// Hide the session directory so the snapshot temp file cannot be
	// created (the WAL's already-open descriptor is unaffected).
	sdir := filepath.Join(dir, "frag")
	if err := os.Rename(sdir, sdir+".hidden"); err != nil {
		t.Fatal(err)
	}
	if err := sess.Snapshot(ls); err == nil {
		t.Fatal("snapshot into missing dir succeeded")
	}
	if snapErrs != 1 {
		t.Fatalf("snapshot errors observed: %d", snapErrs)
	}
	if err := os.Rename(sdir+".hidden", sdir); err != nil {
		t.Fatal(err)
	}
	sess.Close(nil)

	m2, _ := OpenManager(Config{Dir: dir, SnapshotFrames: -1})
	recovered, err := m2.Recover(testStoreCfg)
	if err != nil || len(recovered) != 1 || recovered[0].Processed != 40 {
		t.Fatalf("recover after failed snapshot: %v", err)
	}
}
