package journal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"time"

	"aims/internal/core"
)

// Meta is the session's registration record, written once (atomically) at
// session creation as meta.json. It carries everything recovery needs to
// rebuild an identically-shaped live store when no snapshot exists yet,
// and everything adoption needs to match a reconnecting device to its
// recovered session.
type Meta struct {
	Name         string    `json:"name"`
	Rate         float64   `json:"rate_hz"`
	HorizonTicks int       `json:"horizon_ticks"`
	TimeBuckets  int       `json:"time_buckets"`
	ValueBins    int       `json:"value_bins"`
	Mins         []float64 `json:"mins"`
	Maxs         []float64 `json:"maxs"`
	Created      time.Time `json:"created"`
}

// Channels returns the registered channel count.
func (m Meta) Channels() int { return len(m.Mins) }

const metaName = "meta.json"

func writeMeta(dir string, m Meta) error {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return atomicWrite(dir, metaName, b)
}

func readMeta(dir string) (Meta, error) {
	b, err := os.ReadFile(filepath.Join(dir, metaName))
	if err != nil {
		return Meta{}, err
	}
	var m Meta
	if err := json.Unmarshal(b, &m); err != nil {
		return Meta{}, fmt.Errorf("journal: corrupt %s: %w", metaName, err)
	}
	if m.Channels() == 0 || len(m.Mins) != len(m.Maxs) || m.Rate <= 0 {
		return Meta{}, fmt.Errorf("journal: implausible %s (channels=%d rate=%v)", metaName, m.Channels(), m.Rate)
	}
	return m, nil
}

// Snapshot files are named snap-<frames>-<crc>.aims: the frame watermark
// orders them and the whole-file CRC32C lets recovery reject a bit-flipped
// snapshot before core.ReadStore ever parses it (falling back to the next
// older one).

const snapPrefix = "snap-"

func snapName(frames uint64, crc uint32) string {
	return fmt.Sprintf("%s%016x-%08x.aims", snapPrefix, frames, crc)
}

func parseSnapName(name string) (frames uint64, crc uint32, ok bool) {
	if n, err := fmt.Sscanf(name, snapPrefix+"%016x-%08x.aims", &frames, &crc); n == 2 && err == nil {
		return frames, crc, true
	}
	return 0, 0, false
}

// writeSnapshot serialises a sealed store, fsyncs it under a temp name,
// atomically renames it into place, syncs the directory, and removes any
// older snapshots. It returns the snapshot's byte size.
func writeSnapshot(dir string, frames uint64, st *core.Store) (int64, error) {
	// Sized once from the store: the coefficients are all but a few hundred
	// bytes of the file, and doubling up to them from empty copies it twice.
	var buf bytes.Buffer
	buf.Grow(8*len(st.Engine.Coeffs) + 20*st.Channels + 256)
	if _, err := st.WriteTo(&buf); err != nil {
		return 0, err
	}
	crc := crc32.Checksum(buf.Bytes(), crcTable)
	if err := atomicWrite(dir, snapName(frames, crc), buf.Bytes()); err != nil {
		return 0, err
	}
	// Older snapshots are now redundant; losing this cleanup to a crash is
	// harmless (recovery always prefers the newest intact one).
	entries, err := os.ReadDir(dir)
	if err != nil {
		return int64(buf.Len()), nil
	}
	for _, e := range entries {
		if f, _, ok := parseSnapName(e.Name()); ok && f < frames {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
	return int64(buf.Len()), nil
}

// loadLatestSnapshot returns the newest snapshot that passes its CRC,
// parses, and inverse-transforms back into a live store, together with its
// frame watermark. ok=false when the directory has no usable snapshot
// (cfg's shape knobs are then taken from meta instead).
func loadLatestSnapshot(dir string, cfg core.LiveStoreConfig, logf func(string, ...interface{})) (ls *core.LiveStore, frames uint64, ok bool) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0, false
	}
	type snap struct {
		name   string
		frames uint64
		crc    uint32
	}
	var snaps []snap
	for _, e := range entries {
		if f, c, okk := parseSnapName(e.Name()); okk {
			snaps = append(snaps, snap{e.Name(), f, c})
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].frames > snaps[j].frames })
	for _, s := range snaps {
		b, err := os.ReadFile(filepath.Join(dir, s.name))
		if err != nil {
			logf("journal: snapshot %s unreadable: %v", s.name, err)
			continue
		}
		if crc32.Checksum(b, crcTable) != s.crc {
			logf("journal: snapshot %s failed CRC, trying older", s.name)
			continue
		}
		st, err := core.ReadStore(bytes.NewReader(b))
		if err != nil {
			logf("journal: snapshot %s unparsable: %v", s.name, err)
			continue
		}
		live, err := core.RestoreLiveStore(st, cfg)
		if err != nil {
			logf("journal: snapshot %s not restorable: %v", s.name, err)
			continue
		}
		return live, s.frames, true
	}
	return nil, 0, false
}

// atomicWrite writes name under dir via a temp file + fsync + rename +
// directory sync, so the file either exists whole or not at all.
func atomicWrite(dir, name string, data []byte) error {
	tmp := filepath.Join(dir, name+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(dir)
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	d.Close()
	return err
}
