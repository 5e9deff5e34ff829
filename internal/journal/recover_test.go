package journal

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
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

// TestAttachAdoptsRecoveredSession: after recovery, Resume reopens the
// recovered session for its reconnected device, which keeps journaling onto
// it; Attach for the same name instead starts afresh and moves the old
// directory aside.
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
	recovered, err := m2.Recover(testStoreCfg)
	if err != nil || len(recovered) != 1 {
		t.Fatalf("recover: %v (%d sessions)", err, len(recovered))
	}
	sess2, err := m2.Resume(recovered[0])
	if err != nil {
		t.Fatal(err)
	}
	store := recovered[0].Store
	if sess2.Processed() != 70 {
		t.Fatalf("resumed processed=%d", sess2.Processed())
	}
	queriesMatch(t, ls, store, 2)
	// Continued ingest journals onto the resumed session.
	ingest(t, sess2, store, sineFrames(30, 2, 70))
	sess2.Close(store)

	m3, _ := OpenManager(cfg)
	recovered, _ = m3.Recover(testStoreCfg)
	if len(recovered) != 1 || recovered[0].Processed != 100 {
		t.Fatalf("final recovery: %d sessions, processed=%d", len(recovered), recovered[0].Processed)
	}

	// Attach never adopts: same name, a fresh session, the old one aside.
	sess4, store4, err := m3.Attach(testMeta("glove", 3))
	if err != nil {
		t.Fatal(err)
	}
	if sess4.Processed() != 0 || store4 != nil {
		t.Fatalf("attach adopted a recovered session: processed=%d store=%v", sess4.Processed(), store4 != nil)
	}
	sess4.Close(nil)
	if _, err := readMeta(filepath.Join(dir, "glove.stale1")); err != nil {
		t.Fatalf("the recovered directory was not moved aside: %v", err)
	}
}

// TestKeyStaysInsideDataDir: every name, hostile ones included, keys one
// path element inside the data dir; a safe name is its own key, and names
// that differ only in unsafe bytes get distinct keys.
func TestKeyStaysInsideDataDir(t *testing.T) {
	long := strings.Repeat("g", 65)
	hostile := []string{"../../etc/passwd", ".", "..", "...", "", "glove 7/left", "a/b", "/", "nul\x00byte", "glove\x00", long, long + "h", "~", "glove 7", "glove\t7", "glove_7~2"}
	seen := map[string]string{}
	for _, name := range hostile {
		k := key(name)
		if k == "." || k == ".." || strings.ContainsAny(k, "/\\\x00") || filepath.Join("data", k) != "data/"+k {
			t.Errorf("key(%q) = %q escapes the data dir", name, k)
		}
		if !strings.HasPrefix(k, "~") || len(k) != 33 {
			t.Errorf("key(%q) = %q, want ~ and 32 hex digits", name, k)
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("names %q and %q share key %q", prev, name, k)
		}
		seen[k] = name
	}
	for _, name := range []string{"glove_7", "ok-name_1.2", "X.stale1", ".hidden", "a..b", long[:64], "session"} {
		if k := key(name); k != name {
			t.Errorf("key(%q) = %q, want the name itself", name, k)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("safe name %q shares its key with %q", name, prev)
		}
	}
}

// TestRecoverOneDirectoryPerName: directories holding one session name —
// a legacy name~2 or a name.staleN beside the name's own — recover as one
// session, from the directory at the name's key, or else from the
// lexically first, which moves to the name's key. So does a lone directory
// an older version keyed lossily ("glove_7" for "glove 7"), which would
// otherwise sit at the key of another name. The others are left on disk
// byte for byte.
func TestRecoverOneDirectoryPerName(t *testing.T) {
	// write journals frames of session name into dataDir/d, as the
	// version or the move that named the directory d left it.
	write := func(t *testing.T, dataDir, d, name string, frames int) {
		t.Helper()
		src := t.TempDir()
		m, _ := OpenManager(Config{Dir: src, Fsync: FsyncOff, SnapshotFrames: -1})
		meta := testMeta(name, 1)
		sess, _, err := m.Attach(meta)
		if err != nil {
			t.Fatal(err)
		}
		ls, _ := core.NewLiveStore(meta.Mins, meta.Maxs, testStoreCfg)
		ingest(t, sess, ls, sineFrames(frames, 1, 0))
		sess.Close(nil)
		if err := os.Rename(filepath.Join(src, key(name)), filepath.Join(dataDir, d)); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		test, name string
		dirs       []string // directory names, holding 10, 20, … frames
		from       string   // the one recovered
		wantFrames uint64
	}{
		{"legacy fork", "X", []string{"X", "X~2"}, "X", 10},
		{"moved aside", "X", []string{"X", "X.stale1"}, "X", 10},
		{"own key sorts last", "X", []string{"W", "X"}, "X", 20},
		{"no own key", "X", []string{"X.stale2", "X.stale1"}, "X.stale1", 20},
		{"lossy legacy key", "glove 7", []string{"glove_7"}, "glove_7", 10},
	} {
		t.Run(tc.test, func(t *testing.T) {
			dir := t.TempDir()
			for i, d := range tc.dirs {
				write(t, dir, d, tc.name, 10*(i+1))
			}
			before := map[string]map[string][]byte{}
			for _, d := range tc.dirs {
				before[d] = dirBytes(t, filepath.Join(dir, d))
			}
			m, _ := OpenManager(Config{Dir: dir, SnapshotFrames: -1})
			recovered, err := m.Recover(testStoreCfg)
			if err != nil || len(recovered) != 1 {
				t.Fatalf("recover: %v (%d sessions), want one", err, len(recovered))
			}
			want := key(tc.name)
			if r := recovered[0]; r.Key != want || r.Meta.Name != tc.name || r.Processed != tc.wantFrames {
				t.Fatalf("recovered %s (%q, %d frames), want %s with %d", r.Key, r.Meta.Name, r.Processed, want, tc.wantFrames)
			}
			if _, err := os.Stat(filepath.Join(dir, tc.from)); tc.from != want && !os.IsNotExist(err) {
				t.Fatalf("%s was recovered but not moved to %s (stat: %v)", tc.from, want, err)
			}
			for _, d := range tc.dirs {
				if d == tc.from {
					continue
				}
				after := dirBytes(t, filepath.Join(dir, d))
				if len(after) != len(before[d]) {
					t.Fatalf("%s: %d files, had %d", d, len(after), len(before[d]))
				}
				for f, b := range before[d] {
					if !bytes.Equal(after[f], b) {
						t.Fatalf("%s/%s changed", d, f)
					}
				}
			}
		})
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
