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

// storeConfig returns cfg with the session's store shape: the live store
// meta describes takes its non-shape knobs from cfg.
func (m Meta) storeConfig(cfg core.LiveStoreConfig) core.LiveStoreConfig {
	cfg.Rate = m.Rate
	cfg.HorizonTicks = m.HorizonTicks
	cfg.TimeBuckets = m.TimeBuckets
	cfg.ValueBins = m.ValueBins
	return cfg
}

const metaName = "meta.json"

func writeMeta(dir string, m Meta) error {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return atomicWrite(dir, metaName, b, createFile)
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
// snapshot before it is ever decoded (falling back to the next older one).
// The file is the store's count cube as core.LiveStore.AppendSnapshot
// encodes it.

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

// sealedSnapMagic opens a snapshot written as a sealed, serialised engine
// (core.Store.WriteTo) before snapshots became the count cube.
var sealedSnapMagic = []byte("AIMSSTO1")

// writeSnapshot writes a snapshot encoding of the store at the given frame
// watermark — fsynced under a temp name opened through open, atomically
// renamed into place, the directory synced — and removes any older
// snapshots.
func writeSnapshot(dir string, frames uint64, snap []byte, open func(string) (File, error)) error {
	crc := crc32.Checksum(snap, crcTable)
	if err := atomicWrite(dir, snapName(frames, crc), snap, open); err != nil {
		return err
	}
	// Older snapshots are now redundant; losing this cleanup to a crash is
	// harmless (recovery always prefers the newest intact one).
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	for _, e := range entries {
		if f, _, ok := parseSnapName(e.Name()); ok && f < frames {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
	return nil
}

// loadLatestSnapshot returns the newest snapshot that passes its CRC and
// decodes into a live store (core.ReadSnapshot), together with its frame
// watermark, or a nil store when the directory has no usable snapshot (the
// store is then built from meta). A sealed-engine snapshot refuses the
// directory with ErrFormat before any older one is tried: falling back
// past it would lose the frames it covers without an error.
func loadLatestSnapshot(dir string, cfg core.LiveStoreConfig, logf func(string, ...interface{})) (*core.LiveStore, uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0, nil
	}
	type snap struct {
		name   string
		frames uint64
		crc    uint32
	}
	var snaps []snap
	for _, e := range entries {
		if f, c, ok := parseSnapName(e.Name()); ok {
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
		if bytes.HasPrefix(b, sealedSnapMagic) {
			return nil, 0, formatError(s.name, "an AIMSSTO1 snapshot (a sealed engine)")
		}
		if crc32.Checksum(b, crcTable) != s.crc {
			logf("journal: snapshot %s failed CRC, trying older", s.name)
			continue
		}
		live, err := core.ReadSnapshot(b, cfg)
		if err != nil {
			logf("journal: snapshot %s not restorable: %v", s.name, err)
			continue
		}
		return live, s.frames, nil
	}
	return nil, 0, nil
}

// atomicWrite writes name under dir via a temp file + fsync + rename +
// directory sync, so the file either exists whole or not at all. open
// creates the temp file exclusively, so a stale one a crash left is
// removed first.
func atomicWrite(dir, name string, data []byte, open func(string) (File, error)) error {
	tmp := filepath.Join(dir, name+".tmp")
	os.Remove(tmp)
	f, err := open(tmp)
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
