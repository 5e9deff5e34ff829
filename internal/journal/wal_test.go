package journal

import (
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"aims/internal/core"
	"aims/internal/stream"
)

func testFrames(n, channels int, start uint64) []stream.Frame {
	frames := make([]stream.Frame, n)
	for i := range frames {
		vals := make([]float64, channels)
		for c := range vals {
			vals[c] = float64(start) + float64(i) + float64(c)/10
		}
		frames[i] = stream.Frame{T: float64(start+uint64(i)) / 100, Values: vals}
	}
	return frames
}

// seqMeta is a session whose value bins name the test streams' frames:
// values in [0, 65 535] at 65 536 bins, so testFrames' frame i bins to i on
// its first channels and replay can tell every frame apart.
func seqMeta(name string, channels int) Meta {
	mins, maxs := make([]float64, channels), make([]float64, channels)
	for c := range maxs {
		maxs[c] = 65535
	}
	return Meta{
		Name: name, Rate: 100, HorizonTicks: 3200,
		TimeBuckets: 32, ValueBins: 65536, Mins: mins, Maxs: maxs,
	}
}

// seqBinner is seqMeta's Binner.
func seqBinner(channels int) *core.Binner {
	m := seqMeta("", channels)
	bn, err := core.NewBinner(m.Mins, m.Maxs, m.storeConfig(core.LiveStoreConfig{}))
	if err != nil {
		panic(err)
	}
	return bn
}

// binFrames is frames' bins record in the seqMeta shape, the form the WAL
// journals.
func binFrames(frames []stream.Frame, width int) []byte {
	rec, _ := seqBinner(width).BinFrames(frames, nil)
	return rec
}

// decodeBins turns a bins record of cellBytes-byte cells back into frames,
// T its time bucket and each value its bin; skipped frames are left out.
func decodeBins(rec []byte, channels, cellBytes int) []stream.Frame {
	n := int(binary.LittleEndian.Uint32(rec))
	var buckets []uint32
	runs := rec[4:]
	for len(buckets) < n {
		tb, k := binary.LittleEndian.Uint32(runs), int(binary.LittleEndian.Uint32(runs[4:]))
		for runs = runs[8:]; k > 0; k-- {
			buckets = append(buckets, tb)
		}
	}
	var out []stream.Frame
	for _, tb := range buckets {
		if tb == math.MaxUint32 {
			continue
		}
		f := stream.Frame{T: float64(tb), Values: make([]float64, channels)}
		for c := range f.Values {
			if cellBytes == 2 {
				f.Values[c] = float64(binary.LittleEndian.Uint16(runs))
			} else {
				f.Values[c] = float64(runs[0])
			}
			runs = runs[cellBytes:]
		}
		out = append(out, f)
	}
	return out
}

// appendOne journals a lone batch, binned in the seqMeta shape: a group of
// one.
func appendOne(w *wal, start uint64, frames []stream.Frame, width int) error {
	_, err := w.append(start, [][]byte{binFrames(frames, width)})
	return err
}

// collect replays a directory's WAL, in the seqMeta shape, into a flat
// frame list: each bins record's stored frames, their values the bins.
func collect(t *testing.T, dir string, watermark uint64, width int) ([]stream.Frame, replayResult) {
	t.Helper()
	var got []stream.Frame
	res, err := replayWAL(dir, watermark, seqBinner(width), func(_ uint64, bins []byte) {
		got = append(got, decodeBins(bins, width, 2)...)
	})
	if err != nil {
		t.Fatal(err)
	}
	return got, res
}

func TestWALAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir}.withDefaults()
	w, err := openWAL(dir, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var next uint64
	for batch := 0; batch < 7; batch++ {
		frames := testFrames(5+batch, 3, next)
		if err := appendOne(w, next, frames, 3); err != nil {
			t.Fatal(err)
		}
		next += uint64(len(frames))
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	got, res := collect(t, dir, 0, 3)
	if uint64(len(got)) != next || res.processed != next || res.truncated {
		t.Fatalf("replayed %d frames (processed=%d truncated=%v), want %d", len(got), res.processed, res.truncated, next)
	}
	if want := math.Round(testFrames(1, 3, 11)[0].Values[2]); got[11].Values[2] != want {
		t.Fatalf("frame 11 replays channel 2 in bin %v, want %v", got[11].Values[2], want)
	}
}

func TestWALSegmentRotationAndTruncate(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, SegmentBytes: 512}.withDefaults()
	w, err := openWAL(dir, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var next uint64
	for batch := 0; batch < 40; batch++ {
		frames := testFrames(8, 2, next)
		if err := appendOne(w, next, frames, 2); err != nil {
			t.Fatal(err)
		}
		next += 8
	}
	seqs, _ := listSegments(dir)
	if len(seqs) < 3 {
		t.Fatalf("expected rotation, got %d segments", len(seqs))
	}
	got, res := collect(t, dir, 0, 2)
	if uint64(len(got)) != next || res.truncated {
		t.Fatalf("replayed %d/%d", len(got), next)
	}

	// A mid-stream watermark trims the covered prefix exactly.
	got, res = collect(t, dir, 100, 2)
	if uint64(len(got)) != next-100 || res.processed != next {
		t.Fatalf("watermark replay got %d frames, processed %d", len(got), res.processed)
	}

	// Truncation drops only segments wholly below the watermark, and the
	// remaining log still replays everything past it.
	if err := w.truncateBelow(next / 2); err != nil {
		t.Fatal(err)
	}
	left, _ := listSegments(dir)
	if len(left) >= len(seqs) || len(left) == 0 {
		t.Fatalf("truncate kept %d of %d segments", len(left), len(seqs))
	}
	got, _ = collect(t, dir, next/2, 2)
	if uint64(len(got)) != next-next/2 {
		t.Fatalf("post-truncate replay got %d, want %d", len(got), next-next/2)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
}

func TestWALTornTailTruncatedAtLastValidRecord(t *testing.T) {
	dir := t.TempDir()
	plan := NewFaultPlan()
	cfg := Config{Dir: dir, OpenFile: plan.Open}.withDefaults()
	w, err := openWAL(dir, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := appendOne(w, uint64(i*4), testFrames(4, 2, uint64(i*4)), 2); err != nil {
			t.Fatal(err)
		}
	}
	// Tear the sixth batch a few bytes into its record.
	plan.TearAt(plan.Written() + 13)
	if err := appendOne(w, 20, testFrames(4, 2, 20), 2); !errors.Is(err, ErrInjectedTear) {
		t.Fatalf("torn write returned %v", err)
	}
	w.close()

	got, res := collect(t, dir, 0, 2)
	if len(got) != 20 || !res.truncated || res.processed != 20 {
		t.Fatalf("recovered %d frames (truncated=%v processed=%d), want 20", len(got), res.truncated, res.processed)
	}
	// The replay physically cut the tail: a second replay is clean, and a
	// fresh WAL can continue from the recovered index.
	got, res = collect(t, dir, 0, 2)
	if len(got) != 20 || res.truncated {
		t.Fatalf("second replay: %d frames truncated=%v", len(got), res.truncated)
	}
	plan.Heal()
	w2, err := openWAL(dir, 20, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := appendOne(w2, 20, testFrames(4, 2, 20), 2); err != nil {
		t.Fatal(err)
	}
	w2.close()
	got, res = collect(t, dir, 0, 2)
	if len(got) != 24 || res.truncated {
		t.Fatalf("after continue: %d frames truncated=%v", len(got), res.truncated)
	}
}

func TestWALBitFlipDetectedByCRC(t *testing.T) {
	for _, off := range []int64{0, 3, 4, 8, 9, 25} {
		dir := t.TempDir()
		plan := NewFaultPlan()
		cfg := Config{Dir: dir, OpenFile: plan.Open}.withDefaults()
		w, err := openWAL(dir, 0, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := appendOne(w, 0, testFrames(6, 2, 0), 2); err != nil {
			t.Fatal(err)
		}
		// Flip one bit inside the second record (off bytes past its start).
		plan.FlipBit(plan.Written()+off, 0x10)
		if err := appendOne(w, 6, testFrames(6, 2, 6), 2); err != nil {
			t.Fatal(err)
		}
		if err := appendOne(w, 12, testFrames(6, 2, 12), 2); err != nil {
			t.Fatal(err)
		}
		w.close()
		got, res := collect(t, dir, 0, 2)
		// Everything from the flipped record on is untrusted.
		if len(got) != 6 || !res.truncated {
			t.Fatalf("offset %d: recovered %d frames truncated=%v, want 6", off, len(got), res.truncated)
		}
	}
}

func TestWALShortHeaderAndGarbageFiles(t *testing.T) {
	dir := t.TempDir()
	// A torn segment header (crash during rotation) must not break replay.
	if err := os.WriteFile(filepath.Join(dir, segName(1)), []byte("AIMSW"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, res := collect(t, dir, 0, 2)
	if len(got) != 0 || !res.truncated {
		t.Fatalf("torn header: %d frames truncated=%v", len(got), res.truncated)
	}
	if _, err := os.Stat(filepath.Join(dir, segName(1))); !os.IsNotExist(err) {
		t.Fatal("headerless segment not removed")
	}
}

// TestWALSyncsEveryAppend: every append and every ack record is synced
// before it returns, so close has nothing left to sync.
func TestWALSyncsEveryAppend(t *testing.T) {
	plan := NewFaultPlan()
	dir := t.TempDir()
	w, err := openWAL(dir, 0, Config{Dir: dir, OpenFile: plan.Open}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := appendOne(w, uint64(i), testFrames(1, 1, uint64(i)), 1); err != nil {
			t.Fatal(err)
		}
	}
	if got := plan.Syncs(); got != 10 {
		t.Fatalf("10 appends cost %d syncs, want 10", got)
	}
	if err := w.appendAck(ackMark{12, 10}, 10); err != nil {
		t.Fatal(err)
	}
	if got := plan.Syncs(); got != 11 {
		t.Fatalf("an ack record cost %d syncs, want 1", got-10)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	if got := plan.Syncs(); got != 11 {
		t.Fatalf("close of a synced segment cost %d syncs, want 0", got-11)
	}
}

// TestTruncateBelowUsesTheIndexItKeeps: truncation decides from the first-
// frame indices the wal read at open and wrote at rotation, not from the
// files: with the header of every segment on disk wiped after the wal
// learned it, a snapshot's truncation still drops exactly the segments the
// watermark covers, those of a previous incarnation included.
func TestTruncateBelowUsesTheIndexItKeeps(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, SegmentBytes: 256}.withDefaults()
	w, err := openWAL(dir, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var next uint64
	write := func(w *wal, batches int) {
		for ; batches > 0; batches-- {
			if err := appendOne(w, next, testFrames(8, 2, next), 2); err != nil {
				t.Fatal(err)
			}
			next += 8
		}
	}
	write(w, 12)
	w.close()
	if w, err = openWAL(dir, next, cfg); err != nil { // a restart: the index is read once, here
		t.Fatal(err)
	}
	write(w, 12)
	want := map[int]bool{} // the segments a watermark of 120 leaves
	for i, seg := range w.segs {
		if i+1 == len(w.segs) || w.segs[i+1].first > 120 {
			want[seg.seq] = true
		}
	}
	if len(want) == len(w.segs) || len(want) < 2 {
		t.Fatalf("%d of %d segments stay: the stream was meant to span several on both sides of frame 120", len(want), len(w.segs))
	}
	seqs, _ := listSegments(dir)
	for _, seq := range seqs {
		if err := os.WriteFile(filepath.Join(dir, segName(seq)), make([]byte, walHeaderSize), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.truncateBelow(120); err != nil {
		t.Fatal(err)
	}
	left, _ := listSegments(dir)
	if len(left) != len(want) {
		t.Fatalf("segments %v survive, want %d", left, len(want))
	}
	for _, seq := range left {
		if !want[seq] {
			t.Fatalf("segment %d survives, want %v", seq, want)
		}
	}
	w.close()
}
