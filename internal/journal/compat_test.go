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
	ls, err := core.NewLiveStore(meta.Mins, meta.Maxs, testStoreCfg)
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

// TestParentWrittenSessionRecoversAndMatches: the same session written
// here is compatCubeGolden byte for byte — meta, snapshot (whose name
// carries its CRC) and both WAL segments — and its meta and segments are
// compatGolden's too. Both directories recover here to the store the
// session fed, compatGolden through the legacy snapshot reader.
func TestParentWrittenSessionRecoversAndMatches(t *testing.T) {
	if out := os.Getenv("AIMS_WRITE_COMPAT_GOLDEN"); out != "" {
		writeCompatSession(t, out)
		return
	}
	fresh := t.TempDir()
	ls := writeCompatSession(t, fresh)
	written := dirBytes(t, filepath.Join(fresh, "compat"))
	legacy := dirBytes(t, filepath.Join(compatGolden, "compat"))
	cube := dirBytes(t, filepath.Join(compatCubeGolden, "compat"))
	for _, golden := range []map[string][]byte{legacy, cube} {
		if len(golden) != 4 {
			t.Fatalf("golden directory holds %d files, want meta, one snapshot and two segments", len(golden))
		}
	}
	if len(written) != len(cube) {
		t.Fatalf("this commit wrote %d files, the golden holds %d", len(written), len(cube))
	}
	for name, want := range cube {
		if got, ok := written[name]; !ok || !bytes.Equal(got, want) {
			t.Errorf("%s: this commit wrote %d bytes (present=%v), the golden's %d differ", name, len(got), ok, len(want))
		}
	}
	for name, want := range legacy {
		if _, _, snap := parseSnapName(name); snap {
			continue
		}
		if got, ok := written[name]; !ok || !bytes.Equal(got, want) {
			t.Errorf("%s: this commit wrote %d bytes (present=%v), the parent's %d differ", name, len(got), ok, len(want))
		}
	}

	for _, golden := range []string{compatGolden, compatCubeGolden} {
		_, _, recovered := recoverCopy(t, golden)
		if r := recovered; r.Watermark != 80 || r.Processed != 140 || r.Truncated {
			t.Fatalf("%s: watermark=%d processed=%d truncated=%v, want 80/140/false", golden, r.Watermark, r.Processed, r.Truncated)
		}
		queriesMatch(t, ls, recovered.Store, 1)
	}
}

// recoverCopy recovers a copy of a golden session directory (recovery may
// cut a log, and the golden stays as it is) and returns the copy's
// manager, its data directory and its one session.
func recoverCopy(t *testing.T, golden string) (*Manager, string, *Recovered) {
	t.Helper()
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "compat"), 0o755); err != nil {
		t.Fatal(err)
	}
	for name, b := range dirBytes(t, filepath.Join(golden, "compat")) {
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
	m, dir, r := recoverCopy(t, compatGolden)
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
