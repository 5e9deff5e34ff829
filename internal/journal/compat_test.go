package journal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"aims/internal/core"
)

// compatGolden is a session directory written by the commit before group
// commit and the bulk snapshot encoder (PR 14, 94fa018), by running
// writeCompatSession there with AIMS_WRITE_COMPAT_GOLDEN set. It is the
// fixed point of the meta and WAL formats, which this commit must write
// byte for byte, and its snapshot — a sealed, serialised engine — is the
// legacy snapshot this commit must still recover.
const compatGolden = "testdata/compat-pr14"

// compatCubeGolden is the same session written, the same way, by the
// commit that made a snapshot the count cube itself: the fixed point of
// the snapshot format.
const compatCubeGolden = "testdata/compat-pr44"

// compatBinsGolden is the same session written, the same way, by the
// commit that journals a batch as its bins record: the fixed point of the
// WAL format, which this commit must write byte for byte. Its upgrade
// directory (writeUpgradeSession) is compatCubeGolden's session carried on
// across an upgrade: a legacy frames segment, then a bins segment.
const compatBinsGolden = "testdata/compat-pr45"

// compatStoreCfg is the store the golden sessions fed: testStoreCfg at the
// default horizon, 60 s, not the 32 s their meta records, so their
// snapshots' bucket width, and the recovered store's, is 188 ticks.
var compatStoreCfg = core.LiveStoreConfig{Rate: 100, TimeBuckets: 32, ValueBins: 32}

// writeCompatSession journals a fixed one-channel session under dir and
// leaves it as a crash would: 80 frames in a snapshot, 60 more in a WAL
// tail that spans two 1 KiB segments. It returns the live store the
// session fed.
func writeCompatSession(t *testing.T, dir string) *core.LiveStore {
	t.Helper()
	m, err := OpenManager(Config{Dir: dir, SnapshotFrames: -1, SegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	meta := testMeta("compat", 1)
	meta.Created = time.Date(2003, 1, 5, 0, 0, 0, 0, time.UTC)
	sess, _, err := m.Attach(meta)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := core.NewLiveStore(meta.Mins, meta.Maxs, compatStoreCfg)
	if err != nil {
		t.Fatal(err)
	}
	for at := 0; at < 80; at += 20 {
		ingest(t, sess, ls, sineFrames(20, 1, uint64(at)))
	}
	if err := sess.Snapshot(ls); err != nil {
		t.Fatal(err)
	}
	for at := 80; at < 140; at += 20 {
		ingest(t, sess, ls, sineFrames(20, 1, uint64(at)))
	}
	return ls
}

// dirBytes reads every file of a session directory, keyed by name.
func dirBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}

// writeUpgradeSession writes, under dir/upgrade, compatCubeGolden's
// session as a crash left it after its legacy frames segment, recovered and
// carried on to the same 140 frames by this commit: meta, the snapshot at
// 80, the legacy segment of frames 60–119 and a bins segment of frames
// 120–139.
func writeUpgradeSession(t *testing.T, dir string) {
	t.Helper()
	data := t.TempDir()
	if err := os.Mkdir(filepath.Join(data, "compat"), 0o755); err != nil {
		t.Fatal(err)
	}
	for name, b := range dirBytes(t, filepath.Join(compatCubeGolden, "compat")) {
		if name == segName(3) {
			continue // the crash took the legacy log's last segment
		}
		if err := os.WriteFile(filepath.Join(data, "compat", name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	m, err := OpenManager(Config{Dir: data, SnapshotFrames: -1, SegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.Load("compat", testStoreCfg)
	if err != nil || r.Processed != 120 {
		t.Fatalf("load: %+v err=%v, want 120 frames", r, err)
	}
	sess, err := m.Resume(r)
	if err != nil {
		t.Fatal(err)
	}
	ingest(t, sess, r.Store, sineFrames(20, 1, 120))
	if err := os.Rename(filepath.Join(data, "compat"), filepath.Join(dir, "upgrade")); err != nil {
		t.Fatal(err)
	}
}

// TestParentWrittenSessionRecoversAndMatches: the same session written
// here is compatBinsGolden byte for byte — meta, snapshot (whose name
// carries its CRC) and its bins segment — its meta is compatGolden's and
// compatCubeGolden's too, and its snapshot compatCubeGolden's. The upgrade
// directory written here is compatBinsGolden's too. Every directory
// recovers here to the store the session fed, compatGolden through the
// legacy snapshot reader, the older two and the upgrade's first segment
// through the legacy frames replay: the same answers, and a snapshot of
// the same bytes.
func TestParentWrittenSessionRecoversAndMatches(t *testing.T) {
	if out := os.Getenv("AIMS_WRITE_COMPAT_GOLDEN"); out != "" {
		writeCompatSession(t, out)
		writeUpgradeSession(t, out)
		return
	}
	fresh := t.TempDir()
	ls := writeCompatSession(t, fresh)
	writeUpgradeSession(t, fresh)
	legacy := dirBytes(t, filepath.Join(compatGolden, "compat"))
	cube := dirBytes(t, filepath.Join(compatCubeGolden, "compat"))
	for _, golden := range []map[string][]byte{legacy, cube} {
		if len(golden) != 4 {
			t.Fatalf("golden directory holds %d files, want meta, one snapshot and two segments", len(golden))
		}
	}
	for _, sub := range []string{"compat", "upgrade"} {
		written := dirBytes(t, filepath.Join(fresh, sub))
		golden := dirBytes(t, filepath.Join(compatBinsGolden, sub))
		if len(written) != len(golden) {
			t.Fatalf("%s: this commit wrote %d files, the golden holds %d", sub, len(written), len(golden))
		}
		for name, want := range golden {
			if got, ok := written[name]; !ok || !bytes.Equal(got, want) {
				t.Errorf("%s/%s: this commit wrote %d bytes (present=%v), the golden's %d differ", sub, name, len(got), ok, len(want))
			}
		}
	}
	written := dirBytes(t, filepath.Join(fresh, "compat"))
	if len(written) != 3 {
		t.Fatalf("this commit wrote %d files, want meta, one snapshot and one segment", len(written))
	}
	for _, older := range []map[string][]byte{legacy, cube} {
		if !bytes.Equal(written[metaName], older[metaName]) {
			t.Errorf("%s: this commit wrote %d bytes, an older golden's %d differ", metaName, len(written[metaName]), len(older[metaName]))
		}
	}
	for name, want := range cube {
		if _, _, snap := parseSnapName(name); snap && !bytes.Equal(written[name], want) {
			t.Errorf("%s: this commit wrote %d bytes, the parent's %d differ", name, len(written[name]), len(want))
		}
	}

	for _, golden := range []struct{ dir, sub string }{
		{compatGolden, "compat"}, {compatCubeGolden, "compat"}, {compatBinsGolden, "compat"}, {compatBinsGolden, "upgrade"},
	} {
		_, _, recovered := recoverCopy(t, golden.dir, golden.sub)
		if r := recovered; r.Watermark != 80 || r.Processed != 140 || r.Truncated {
			t.Fatalf("%s/%s: watermark=%d processed=%d truncated=%v, want 80/140/false", golden.dir, golden.sub, r.Watermark, r.Processed, r.Truncated)
		}
		queriesMatch(t, ls, recovered.Store, 1)
		if !bytes.Equal(recovered.Store.AppendSnapshot(nil), ls.AppendSnapshot(nil)) {
			t.Fatalf("%s/%s: the recovered store snapshots to other bytes than the store the session fed", golden.dir, golden.sub)
		}
	}
}

// recoverCopy recovers a copy of the session directory sub of a golden
// (recovery may cut a log, and the golden stays as it is) and returns the
// copy's manager, its data directory and its one session.
func recoverCopy(t *testing.T, golden, sub string) (*Manager, string, *Recovered) {
	t.Helper()
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "compat"), 0o755); err != nil {
		t.Fatal(err)
	}
	for name, b := range dirBytes(t, filepath.Join(golden, sub)) {
		if err := os.WriteFile(filepath.Join(dir, "compat", name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	m, err := OpenManager(Config{Dir: dir, SnapshotFrames: -1})
	if err != nil {
		t.Fatal(err)
	}
	recovered, err := m.Recover(testStoreCfg)
	if err != nil || len(recovered) != 1 {
		t.Fatalf("recover: %v (%d sessions)", err, len(recovered))
	}
	return m, dir, recovered[0]
}

// TestLegacySnapshotIsRewrittenAsCube: a session loaded from a legacy
// snapshot, a sealed engine, writes its next snapshot as the count cube,
// keeps exactly that one snapshot, and reloads to the same exact answers.
func TestLegacySnapshotIsRewrittenAsCube(t *testing.T) {
	ls := writeCompatSession(t, t.TempDir())
	m, dir, r := recoverCopy(t, compatGolden, "compat")
	sess, err := m.Resume(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Snapshot(r.Store); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(nil); err != nil {
		t.Fatal(err)
	}
	var snaps []string
	for name, b := range dirBytes(t, filepath.Join(dir, "compat")) {
		if _, _, ok := parseSnapName(name); ok {
			if bytes.HasPrefix(b, legacySnapMagic) {
				t.Fatalf("%s is still a sealed engine", name)
			}
			snaps = append(snaps, name)
		}
	}
	if len(snaps) != 1 {
		t.Fatalf("snapshots %v, want exactly one", snaps)
	}
	back, err := m.Load("compat", testStoreCfg)
	if err != nil || back.Watermark != 140 || back.Processed != 140 {
		t.Fatalf("reload: %+v err=%v, want all 140 frames from the snapshot", back, err)
	}
	queriesMatch(t, ls, back.Store, 1)
}
