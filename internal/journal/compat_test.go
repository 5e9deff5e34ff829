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
// fixed point for both on-disk formats: this commit must recover it, and
// must write the same bytes for the same session.
const compatGolden = "testdata/compat-pr14"

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

// TestParentWrittenSessionRecoversAndMatches: the directory the parent
// commit wrote recovers here to the store the session fed, and the same
// session written here is that directory byte for byte — meta, snapshot
// (whose name carries its CRC) and both WAL segments.
func TestParentWrittenSessionRecoversAndMatches(t *testing.T) {
	if out := os.Getenv("AIMS_WRITE_COMPAT_GOLDEN"); out != "" {
		writeCompatSession(t, out)
		return
	}
	fresh := t.TempDir()
	ls := writeCompatSession(t, fresh)
	golden := dirBytes(t, filepath.Join(compatGolden, "compat"))
	if len(golden) != 4 {
		t.Fatalf("golden directory holds %d files, want meta, one snapshot and two segments", len(golden))
	}
	written := dirBytes(t, filepath.Join(fresh, "compat"))
	if len(written) != len(golden) {
		t.Fatalf("this commit wrote %d files, the parent wrote %d", len(written), len(golden))
	}
	for name, want := range golden {
		if got, ok := written[name]; !ok || !bytes.Equal(got, want) {
			t.Errorf("%s: this commit wrote %d bytes (present=%v), the parent's %d differ", name, len(got), ok, len(want))
		}
	}

	// Recover a copy: recovery may cut a log, and the golden stays as is.
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "compat"), 0o755); err != nil {
		t.Fatal(err)
	}
	for name, b := range golden {
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
	if r := recovered[0]; r.Watermark != 80 || r.Processed != 140 || r.Truncated {
		t.Fatalf("watermark=%d processed=%d truncated=%v, want 80/140/false", r.Watermark, r.Processed, r.Truncated)
	}
	queriesMatch(t, ls, recovered[0].Store, 1)
}
