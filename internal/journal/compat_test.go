package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"aims/internal/core"
)

// compatGolden is a session directory written by the commit before group
// commit and the bulk snapshot encoder (94fa018), by running
// writeCompatSession there with AIMS_WRITE_COMPAT_GOLDEN set. Its meta is
// the fixed point of the meta format; its snapshot, a sealed engine, and
// its log, wire frames records, are formats this commit refuses.
const compatGolden = "testdata/compat-pr14"

// compatCubeGolden is the same session written, the same way, by the
// commit that made a snapshot the count cube itself: the fixed point of
// the snapshot format. Its log of wire frames records is refused.
const compatCubeGolden = "testdata/compat-pr44"

// compatBinsGolden is the same session written, the same way, by the
// commit that journals a batch as its bins record: the fixed point of the
// WAL format, which this commit must write byte for byte. Its upgrade
// directory, compatCubeGolden's session carried on across an upgrade — a
// frames segment, then a bins segment — is refused.
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

// TestParentWrittenSessionRecoversAndMatches: the same session written
// here is compatBinsGolden's compat directory byte for byte — meta,
// snapshot (whose name carries its CRC) and its bins segment — its meta is
// compatGolden's and compatCubeGolden's too, and its snapshot
// compatCubeGolden's. The golden recovers here to the store the session
// fed: the same answers, and a snapshot of the same bytes.
func TestParentWrittenSessionRecoversAndMatches(t *testing.T) {
	if out := os.Getenv("AIMS_WRITE_COMPAT_GOLDEN"); out != "" {
		writeCompatSession(t, out)
		return
	}
	fresh := t.TempDir()
	ls := writeCompatSession(t, fresh)
	written := dirBytes(t, filepath.Join(fresh, "compat"))
	golden := dirBytes(t, filepath.Join(compatBinsGolden, "compat"))
	if len(written) != 3 || len(golden) != 3 {
		t.Fatalf("this commit wrote %d files, the golden holds %d, want meta, one snapshot and one segment", len(written), len(golden))
	}
	for name, want := range golden {
		if got, ok := written[name]; !ok || !bytes.Equal(got, want) {
			t.Errorf("%s: this commit wrote %d bytes (present=%v), the golden's %d differ", name, len(got), ok, len(want))
		}
	}
	legacy := dirBytes(t, filepath.Join(compatGolden, "compat"))
	cube := dirBytes(t, filepath.Join(compatCubeGolden, "compat"))
	for _, older := range []map[string][]byte{legacy, cube} {
		if len(older) != 4 {
			t.Fatalf("golden directory holds %d files, want meta, one snapshot and two segments", len(older))
		}
		if !bytes.Equal(written[metaName], older[metaName]) {
			t.Errorf("%s: this commit wrote %d bytes, an older golden's %d differ", metaName, len(written[metaName]), len(older[metaName]))
		}
	}
	for name, want := range cube {
		if _, _, snap := parseSnapName(name); snap && !bytes.Equal(written[name], want) {
			t.Errorf("%s: this commit wrote %d bytes, the parent's %d differ", name, len(written[name]), len(want))
		}
	}

	_, _, recovered := recoverCopy(t, compatBinsGolden, "compat")
	if r := recovered; r.Watermark != 80 || r.Processed != 140 || r.Truncated {
		t.Fatalf("watermark=%d processed=%d truncated=%v, want 80/140/false", r.Watermark, r.Processed, r.Truncated)
	}
	queriesMatch(t, ls, recovered.Store, 1)
	if !bytes.Equal(recovered.Store.AppendSnapshot(nil), ls.AppendSnapshot(nil)) {
		t.Fatal("the recovered store snapshots to other bytes than the store the session fed")
	}
}

// copySession copies the session directory sub of a golden under a fresh
// data directory as "compat" (recovery may cut a log, and the golden stays
// as it is) and returns the data directory.
func copySession(t *testing.T, golden, sub string) string {
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
	return dir
}

// recoverCopy recovers a copy of the session directory sub of a golden
// and returns the copy's manager, its data directory and its one session.
func recoverCopy(t *testing.T, golden, sub string) (*Manager, string, *Recovered) {
	t.Helper()
	dir := copySession(t, golden, sub)
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

// TestRetiredFormatsAreRefusedWhole: a directory holding a format this
// commit does not read — a sealed-engine snapshot (compatGolden), a log of
// wire frames records (compatCubeGolden, and compatBinsGolden's upgrade,
// whose frames segment comes before a bins one), an 8-byte ack record, or
// a record of a type no version wrote — is refused: Load fails with
// ErrFormat, naming the file and the format, and Recover logs the
// directory and recovers nothing. Either way the directory is left byte
// for byte as it was. The last two are compatBinsGolden's session with
// such a record added: the ack record after its bins records, and the
// unknown record in a segment the replay would drop, past a torn tail it
// would cut.
func TestRetiredFormatsAreRefusedWhole(t *testing.T) {
	record := func(typ byte, body []byte) []byte {
		return sealRecord(append(make([]byte, recHeaderSize), body...), 0, typ)
	}
	segment := func(first uint64, records ...[]byte) []byte {
		b := binary.LittleEndian.AppendUint64(append([]byte(nil), walMagic[:]...), first)
		return append(b, bytes.Join(records, nil)...)
	}
	cases := []struct {
		name, golden, sub string
		edit              func(dir string) // adds to the copied directory
		format            string
	}{
		{"sealed snapshot", compatGolden, "compat", nil, "AIMSSTO1 snapshot"},
		{"frames records", compatCubeGolden, "compat", nil, "frames record"},
		{"frames then bins", compatBinsGolden, "upgrade", nil, "frames record"},
		{"8-byte ack", compatBinsGolden, "compat", func(dir string) {
			appendFile(t, filepath.Join(dir, segName(1)), record(recAck, binary.LittleEndian.AppendUint64(nil, 140)))
		}, "8-byte ack record"},
		{"unknown type", compatBinsGolden, "compat", func(dir string) {
			appendFile(t, filepath.Join(dir, segName(1)), []byte{0x40, 0, 0, 0, 0xde, 0xad})
			if err := os.WriteFile(filepath.Join(dir, segName(2)), segment(200, record(9, []byte("a later format"))), 0o644); err != nil {
				t.Fatal(err)
			}
		}, "record of type 9"},
	}
	for _, c := range cases {
		data := copySession(t, c.golden, c.sub)
		dir := filepath.Join(data, "compat")
		if c.edit != nil {
			c.edit(dir)
		}
		before := dirBytes(t, dir)
		var logs []string
		m, err := OpenManager(Config{Dir: data, SnapshotFrames: -1, Logf: func(format string, args ...interface{}) {
			logs = append(logs, fmt.Sprintf(format, args...))
		}})
		if err != nil {
			t.Fatal(err)
		}
		r, err := m.Load("compat", testStoreCfg)
		if !errors.Is(err, ErrFormat) || !strings.Contains(err.Error(), c.format) {
			t.Fatalf("%s: load: %+v err=%v, want ErrFormat naming %q", c.name, r, err, c.format)
		}
		recovered, err := m.Recover(testStoreCfg)
		if err != nil || len(recovered) != 0 {
			t.Fatalf("%s: recover: %d sessions, err=%v; want none", c.name, len(recovered), err)
		}
		if n := len(logs); n == 0 || !strings.Contains(logs[n-1], "compat") || !strings.Contains(logs[n-1], c.format) {
			t.Fatalf("%s: recover logged %q, want the directory and the format", c.name, logs)
		}
		after := dirBytes(t, dir)
		if len(after) != len(before) {
			t.Fatalf("%s: the directory holds %d files, it held %d", c.name, len(after), len(before))
		}
		for name, b := range before {
			if !bytes.Equal(after[name], b) {
				t.Fatalf("%s: %s changed", c.name, name)
			}
		}
	}
}

// appendFile appends b to the file at path.
func appendFile(t *testing.T, path string, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}
