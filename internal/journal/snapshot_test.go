package journal

import (
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"aims/internal/core"
	"aims/internal/obs"
)

// TestFailedSnapshotWriteKeepsPrevious: a snapshot opens its temp file
// through Config.OpenFile, so a fault plan reaches it. One whose write
// tears, or whose fsync fails, is counted on SnapshotErrors once and
// leaves the previous snapshot and the WAL as they were — no temp file
// beside them — and those recover every frame exactly.
func TestFailedSnapshotWriteKeepsPrevious(t *testing.T) {
	faults := map[string]struct{ arm, heal func(*FaultPlan) }{
		"torn write": {
			func(p *FaultPlan) { p.TearAt(p.Written() + 100) },
			(*FaultPlan).Heal,
		},
		"failed sync": {
			func(p *FaultPlan) { p.FailSync(errors.New("injected sync failure")) },
			func(p *FaultPlan) { p.FailSync(nil) },
		},
	}
	for name, fault := range faults {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			plan := NewFaultPlan()
			snapErrs := obs.NewRegistry().Counter("snapshot_errors", "")
			m, err := OpenManager(Config{Dir: dir, SnapshotFrames: -1, OpenFile: plan.Open, SnapshotErrors: snapErrs})
			if err != nil {
				t.Fatal(err)
			}
			meta := testMeta("torn", 2)
			sess, _, err := m.Attach(meta)
			if err != nil {
				t.Fatal(err)
			}
			ls, _ := core.NewLiveStore(meta.Mins, meta.Maxs, testStoreCfg)
			ingest(t, sess, ls, sineFrames(300, 2, 0))
			if err := sess.Snapshot(ls); err != nil {
				t.Fatal(err)
			}
			ingest(t, sess, ls, sineFrames(200, 2, 300))
			sessDir := filepath.Join(dir, "torn")
			before := dirBytes(t, sessDir)

			fault.arm(plan)
			if err := sess.Snapshot(ls); err == nil {
				t.Fatal("a snapshot through the fault succeeded")
			}
			fault.heal(plan)
			if n := snapErrs.Value(); n != 1 {
				t.Fatalf("aims_snapshot_errors_total = %d, want 1", n)
			}
			after := dirBytes(t, sessDir)
			if len(after) != len(before) {
				t.Fatalf("the failed snapshot left %v, want %v", names(after), names(before))
			}
			for name, b := range before {
				if !slices.Equal(after[name], b) {
					t.Fatalf("the failed snapshot changed %s", name)
				}
			}
			// Crash now: the snapshot at 300 and the WAL past it hold all 500.
			r, err := m.Load(meta.Name, testStoreCfg)
			if err != nil {
				t.Fatal(err)
			}
			if r.Watermark != 300 || r.Processed != 500 || r.Truncated {
				t.Fatalf("recovered watermark=%d processed=%d truncated=%v, want 300/500/false", r.Watermark, r.Processed, r.Truncated)
			}
			queriesMatch(t, ls, r.Store, 2)
		})
	}
}

func names(files map[string][]byte) []string {
	var out []string
	for name := range files {
		out = append(out, name)
	}
	slices.Sort(out)
	return out
}

// TestSnapshotRemovesStaleTemp: a temp file a crash left under the next
// snapshot's name does not stop that snapshot, though temp files are
// created exclusively.
func TestSnapshotRemovesStaleTemp(t *testing.T) {
	dir := t.TempDir()
	m, err := OpenManager(Config{Dir: dir, SnapshotFrames: -1})
	if err != nil {
		t.Fatal(err)
	}
	meta := testMeta("stale", 1)
	sess, _, err := m.Attach(meta)
	if err != nil {
		t.Fatal(err)
	}
	ls, _ := core.NewLiveStore(meta.Mins, meta.Maxs, testStoreCfg)
	ingest(t, sess, ls, sineFrames(40, 1, 0))
	snap := ls.AppendSnapshot(nil)
	stale := filepath.Join(dir, "stale", snapName(40, crc32.Checksum(snap, crcTable))+".tmp")
	if err := os.WriteFile(stale, []byte("left by a crash"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := sess.Snapshot(ls); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("the stale temp file is still there: %v", err)
	}
	r, err := m.Load(meta.Name, testStoreCfg)
	if err != nil || r.Watermark != 40 {
		t.Fatalf("load: %+v err=%v, want the snapshot at 40", r, err)
	}
}
