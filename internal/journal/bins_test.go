package journal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"aims/internal/core"
	"aims/internal/sensors"
	"aims/internal/stream"
)

// gloveMeta is a 28-channel glove session's meta at the given value bins,
// with the benchmark's seeded recording as its frames, one a tick from
// start, every seventh stamped before the session began.
func gloveMeta(bins int) (Meta, func(n, start int) []stream.Frame) {
	dev := sensors.NewDevice(sensors.GloveSpecs(), sensors.DefaultClock, 1.0, 1000)
	mins, maxs := make([]float64, 28), make([]float64, 28)
	for c := range mins {
		mins[c], maxs[c] = -1, 1
	}
	meta := Meta{Name: "glove", Rate: 100, HorizonTicks: 64 * 24, TimeBuckets: 64, ValueBins: bins, Mins: mins, Maxs: maxs}
	for i := 0; i < 4096; i++ {
		for c, v := range dev.Frame(i) {
			meta.Mins[c], meta.Maxs[c] = math.Min(meta.Mins[c], v), math.Max(meta.Maxs[c], v)
		}
	}
	frames := func(n, start int) []stream.Frame {
		out := make([]stream.Frame, n)
		for i := range out {
			out[i] = stream.Frame{T: float64(start+i) / 100, Values: dev.Frame(start + i)}
			if (start+i)%7 == 0 {
				out[i].T = -1
			}
		}
		return out
	}
	return meta, frames
}

// TestWALLoadsToTheStoreItFed: a glove session journaled as bins records
// and cut off by a crash — after a snapshot or before any — loads to a
// store that snapshots to the bytes of the store the session fed, at one-
// and two-byte cells, the WAL tail replayed into the cells it was first
// stored in.
func TestWALLoadsToTheStoreItFed(t *testing.T) {
	for _, bins := range []int{64, 512} {
		for _, snapAt := range []int{-1, 1024} {
			what := fmt.Sprintf("%d bins, snapshot at %d", bins, snapAt)
			dir := t.TempDir()
			m, err := OpenManager(Config{Dir: dir, SnapshotFrames: -1, SegmentBytes: 16 << 10})
			if err != nil {
				t.Fatal(err)
			}
			meta, frames := gloveMeta(bins)
			sess, _, err := m.Attach(meta)
			if err != nil {
				t.Fatal(err)
			}
			ls, err := core.NewLiveStore(meta.Mins, meta.Maxs, meta.storeConfig(core.LiveStoreConfig{}))
			if err != nil {
				t.Fatal(err)
			}
			for at := 0; at < 3000; at += 200 {
				if at == snapAt {
					if err := sess.Snapshot(ls); err != nil {
						t.Fatal(err)
					}
				}
				bins, _ := ls.Binner().BinFrames(frames(200, at), nil)
				sess.AppendGroup([][]byte{bins}, nil)
				ls.AppendBins(bins)
			}
			r, err := m.Load("glove", core.LiveStoreConfig{})
			if err != nil || r.Truncated || r.Processed != 3000 {
				t.Fatalf("%s: load %+v, err %v", what, r, err)
			}
			if r.Store.Frames() != ls.Frames() || !bytes.Equal(r.Store.AppendSnapshot(nil), ls.AppendSnapshot(nil)) {
				t.Fatalf("%s: the loaded store (%d frames) snapshots to other bytes than the store the session fed (%d)", what, r.Store.Frames(), ls.Frames())
			}
		}
	}
}

// TestSessionAppendFramesBinsAsTheStore: Session.AppendFrames journals the
// record the session's store would bin the frames into.
func TestSessionAppendFramesBinsAsTheStore(t *testing.T) {
	dir := t.TempDir()
	m, _ := OpenManager(Config{Dir: dir, SnapshotFrames: -1})
	meta, frames := gloveMeta(64)
	sess, _, err := m.Attach(meta)
	if err != nil {
		t.Fatal(err)
	}
	batch := frames(100, 0)
	batch[3].Values = batch[3].Values[:5] // a frame of the wrong width is journaled as skipped
	sess.AppendFrames(batch, nil)
	if err := sess.Close(nil); err != nil {
		t.Fatal(err)
	}
	ls, _ := core.NewLiveStore(meta.Mins, meta.Maxs, meta.storeConfig(core.LiveStoreConfig{}))
	want, _ := ls.Binner().BinFrames(batch, nil)
	seg, err := os.ReadFile(filepath.Join(dir, "glove", segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if got := seg[walHeaderSize+recHeaderSize+8:]; !bytes.Equal(got, want) || binary.LittleEndian.Uint64(seg[walHeaderSize+recHeaderSize:]) != 0 {
		t.Fatalf("the journaled record is not the store's bins record of the batch")
	}
}
