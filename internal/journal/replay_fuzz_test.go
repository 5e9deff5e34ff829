package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"aims/internal/core"
)

// FuzzReplayWAL replays arbitrary segment bytes in the golden session's
// shape (one channel, 32 time buckets, 32 value bins), seeded with the
// golden's bins segment, a segment of wire frames records an older version
// wrote, and a segment of ack marks. Replay must never panic; a record is
// checked before anything is sized from its counts; and either it refuses
// the segment with ErrFormat, leaving the file byte for byte as it was, or
// every record it accepts and delivers re-encodes through the writer's own
// framing to the bytes the replay left in the segment, which are the
// segment's intact prefix.
func FuzzReplayWAL(f *testing.F) {
	meta := testMeta("compat", 1)
	bn, err := core.NewBinner(meta.Mins, meta.Maxs, meta.storeConfig(core.LiveStoreConfig{}))
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		filepath.Join(compatBinsGolden, "compat", segName(1)),
		filepath.Join(compatCubeGolden, "compat", segName(2)),
	} {
		b, err := os.ReadFile(seed)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	dir := f.TempDir()
	w, err := openWAL(dir, 40, Config{Dir: dir}.withDefaults())
	if err != nil {
		f.Fatal(err)
	}
	for _, a := range []ackMark{{50, 40}, {70, 40}} {
		if err := w.appendAck(a, 40); err != nil {
			f.Fatal(err)
		}
	}
	w.close()
	acks, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(acks)

	// One directory for the fuzzing process, not one an input: inputs run
	// one at a time, and each rewrites the directory's only segment whole
	// (replay may have truncated or removed the last one's).
	dir = f.TempDir()
	path := filepath.Join(dir, segName(1))
	f.Fuzz(func(t *testing.T, seg []byte) {
		if err := os.WriteFile(path, seg, 0o644); err != nil {
			t.Fatal(err)
		}
		type delivery struct {
			start uint64
			bins  []byte
		}
		var got []delivery
		res, err := replayWAL(dir, 0, bn, func(start uint64, bins []byte) {
			if _, _, err := bn.CheckBins(bins); err != nil {
				t.Fatalf("replay delivered a bins record that does not check: %v", err)
			}
			got = append(got, delivery{start, bytes.Clone(bins)})
		})
		kept, rerr := os.ReadFile(path)
		if os.IsNotExist(rerr) {
			kept = nil
		} else if rerr != nil {
			t.Fatal(rerr)
		}
		if errors.Is(err, ErrFormat) {
			if !bytes.Equal(kept, seg) {
				t.Fatalf("a refused segment was changed: %v", err)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(seg, kept) {
			t.Fatal("replay left bytes that are not a prefix of the segment")
		}
		// Walk the intact records and match each delivered one.
		var end uint64
		for rest := kept[min(len(kept), walHeaderSize):]; len(rest) > 0; {
			n := 8 + int(binary.LittleEndian.Uint32(rest))
			rec, body := rest[:n], rest[recHeaderSize:n]
			rest = rest[n:]
			if rec[8] != recBins {
				continue
			}
			seq, count := binary.LittleEndian.Uint64(body), uint64(binary.LittleEndian.Uint32(body[8:]))
			if seq+count == 0 {
				continue // below the watermark: skipped, not delivered
			}
			if len(got) == 0 {
				t.Fatalf("an intact record at frame %d was not delivered", seq)
			}
			d := got[0]
			got = got[1:]
			if again := appendBinsRecord(nil, d.start, d.bins); !bytes.Equal(again, rec) {
				t.Fatalf("the record delivered at frame %d re-encodes to % x, the segment holds % x", d.start, again, rec)
			}
			end = seq + count
		}
		if len(got) != 0 {
			t.Fatalf("%d deliveries match no intact record", len(got))
		}
		if end != 0 && res.processed != end {
			t.Fatalf("processed %d, the last intact record ends at %d", res.processed, end)
		}
	})
}
