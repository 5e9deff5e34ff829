package journal

import (
	"fmt"
	"os"
	"testing"

	"aims/internal/core"
)

// noSyncFile is a segment file whose Sync returns at once, leaving the
// flush to the page cache.
type noSyncFile struct{ *os.File }

func (noSyncFile) Sync() error { return nil }

// gloveBins is a 256-frame batch of testFrames' stream as a store of
// testMeta's shape bins it: one byte a value, as at the server's default
// 64 value bins.
func gloveBins(b *testing.B, channels int) []byte {
	m := testMeta("", channels)
	bn, err := core.NewBinner(m.Mins, m.Maxs, m.storeConfig(core.LiveStoreConfig{}))
	if err != nil {
		b.Fatal(err)
	}
	rec, _ := bn.BinFrames(testFrames(256, channels, 0), nil)
	return rec
}

// BenchmarkWALAppend measures the page-cache append cost of a lone
// 256-frame × 8-channel batch's bins record: frame, CRC and one write —
// the per-batch tax the WAL adds to the ingest path apart from its fsyncs,
// which a segment file without Sync skips. Bytes are the batch's wire
// frames, what the record stands for.
func BenchmarkWALAppend(b *testing.B) {
	dir := b.TempDir()
	open := func(path string) (File, error) {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
		if err != nil {
			return nil, err
		}
		return noSyncFile{f}, nil
	}
	w, err := openWAL(dir, 0, Config{OpenFile: open}.withDefaults())
	if err != nil {
		b.Fatal(err)
	}
	defer w.close()
	const batch, channels = 256, 8
	group := [][]byte{gloveBins(b, channels)}
	b.SetBytes(batch * (channels + 1) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.append(uint64(i*batch), group); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWALAppendGroup is the durable ingest path's journal step: the
// glove batch of the capacity benchmark (256 frames × 28 channels)
// appended in groups of 1, 4 and 16. One op is one batch, so
// ns/op falls as the group's single fsync is shared; fsyncs/batch reports
// the share.
func BenchmarkWALAppendGroup(b *testing.B) {
	const batch, channels = 256, 28
	frames := gloveBins(b, channels)
	for _, n := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("group=%d", n), func(b *testing.B) {
			plan := NewFaultPlan()
			w, err := openWAL(b.TempDir(), 0, Config{OpenFile: plan.Open}.withDefaults())
			if err != nil {
				b.Fatal(err)
			}
			defer w.close()
			group := make([][]byte, n)
			for i := range group {
				group[i] = frames
			}
			b.SetBytes(batch * (channels + 1) * 8)
			before := plan.Syncs()
			b.ResetTimer()
			for done := 0; done < b.N; done += n {
				g := group[:min(n, b.N-done)]
				if _, err := w.append(uint64(done*batch), g); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(plan.Syncs()-before)/float64(b.N), "fsyncs/batch")
		})
	}
}
