package journal

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"aims/internal/core"
)

// Manager owns the data directory: one subdirectory per session, holding
// meta.json, snap-*.aims snapshots and wal-*.log segments. It lists and
// loads sessions and hands out Session handles, fresh (Attach) or resuming
// (Resume); which device owns which session is its caller's decision.
type Manager struct {
	cfg Config
}

// Recovered is a session rebuilt from its directory by Load, ready for
// Resume.
type Recovered struct {
	Key       string
	Meta      Meta
	Store     *core.LiveStore
	Processed uint64 // frames in Store after snapshot + WAL replay
	Watermark uint64 // frames covered by the snapshot alone
	AckSeq    uint64 // acknowledged client-stream watermark (≥ Processed when frames were shed)
	Truncated bool   // a torn/corrupt WAL tail was cut during replay
}

// OpenManager creates (if needed) the data directory and returns a
// Manager. Call Scan before serving to find any prior state.
func OpenManager(cfg Config) (*Manager, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("journal: empty data dir")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	return &Manager{cfg: cfg}, nil
}

// Scan lists, in key order, one session per name the data directory holds,
// reading meta.json files and nothing else. Where several directories hold
// one name — a legacy name~2, or a name.staleN moved aside — the one at the
// name's key is listed, else the lexically first, renamed to that key. The
// others, anonymous sessions (no Hello can resume them) and directories
// without a readable meta.json are logged and left on disk untouched.
func (m *Manager) Scan() ([]Meta, error) {
	entries, err := os.ReadDir(m.cfg.Dir)
	if err != nil {
		return nil, err
	}
	dirs := map[string]string{} // session name → the directory it is kept in
	metas := map[string]Meta{}  // by directory
	for _, e := range entries { // in directory-name order
		if !e.IsDir() {
			continue
		}
		meta, err := readMeta(filepath.Join(m.cfg.Dir, e.Name()))
		if err != nil {
			m.cfg.Logf("journal: session dir %s not recoverable: %v", e.Name(), err)
			continue
		}
		if meta.Name == "" {
			m.cfg.Logf("journal: session dir %s holds an anonymous session; left on disk", e.Name())
			continue
		}
		metas[e.Name()] = meta
		keep := e.Name()
		if prev, dup := dirs[meta.Name]; dup {
			skip := keep
			if keep != key(meta.Name) {
				keep, skip = prev, keep
			}
			m.cfg.Logf("journal: session dir %s holds session %q as %s does; left on disk", skip, meta.Name, keep)
		}
		dirs[meta.Name] = keep
	}
	var out []Meta
	for name, dir := range dirs {
		// A directory found under another key — an older version's lossy
		// one, or a move aside — moves to the name's own, where no fresh
		// session of another name can ever move it aside in turn.
		if k := key(name); dir != k {
			if err := os.Rename(filepath.Join(m.cfg.Dir, dir), filepath.Join(m.cfg.Dir, k)); err != nil {
				m.cfg.Logf("journal: session dir %s stays under its old key, left on disk: %v", dir, err)
				continue
			}
		}
		out = append(out, metas[dir])
	}
	sort.Slice(out, func(i, j int) bool { return key(out[i].Name) < key(out[j].Name) })
	return out, nil
}

// Recover is Scan, then Load of every session listed that loads.
func (m *Manager) Recover(storeCfg core.LiveStoreConfig) ([]*Recovered, error) {
	metas, err := m.Scan()
	var out []*Recovered
	for _, meta := range metas {
		rec, err := m.Load(meta.Name, storeCfg)
		if err != nil {
			m.cfg.Logf("journal: session dir %s not recoverable: %v", key(meta.Name), err)
			continue
		}
		out = append(out, rec)
	}
	return out, err
}

// Load rebuilds the session under name's key: the newest intact snapshot
// (if any) decoded into a live store, then the WAL tail replayed through
// AppendBins, the path live ingest takes, a torn tail cut. storeCfg
// supplies the non-shape knobs; the shape comes from the session's meta.
// A directory holding a format this version does not read — one written
// before snapshots became the count cube and records its bins — is
// refused with ErrFormat and left byte for byte as it was.
func (m *Manager) Load(name string, storeCfg core.LiveStoreConfig) (*Recovered, error) {
	dir := filepath.Join(m.cfg.Dir, key(name))
	meta, err := readMeta(dir)
	if err != nil {
		return nil, err
	}
	cfg := meta.storeConfig(storeCfg)

	ls, watermark, err := loadLatestSnapshot(dir, cfg, m.cfg.Logf)
	if err != nil {
		return nil, err
	}
	if ls == nil {
		if ls, err = core.NewLiveStore(meta.Mins, meta.Maxs, cfg); err != nil {
			return nil, err
		}
	}
	// Each record was checked by the replay against this store's shape:
	// it lands in the cells it was first stored in.
	res, err := replayWAL(dir, watermark, ls.Binner(), func(_ uint64, bins []byte) { ls.AppendBins(bins) })
	if err != nil {
		return nil, err
	}
	if res.truncated {
		m.cfg.Logf("journal: session %s: WAL tail truncated at last valid record", key(name))
	}
	ack := res.processed
	if res.ackSeq > ack {
		ack = res.ackSeq
	}
	return &Recovered{
		Key:       key(name),
		Meta:      meta,
		Store:     ls,
		Processed: res.processed,
		Watermark: watermark,
		AckSeq:    ack,
		Truncated: res.truncated,
	}, nil
}

// Resume reopens a loaded session's journal for its reconnected device:
// the WAL continues at the loaded frame index in the session's own
// directory, and r.Store is the store to serve.
func (m *Manager) Resume(r *Recovered) (*Session, error) {
	dir := filepath.Join(m.cfg.Dir, r.Key)
	w, err := openWAL(dir, r.Processed, m.cfg)
	if err != nil {
		return nil, err
	}
	s := &Session{key: r.Key, dir: dir, cfg: m.cfg, wal: w, bins: r.Store.Binner()}
	s.processed.Store(r.Processed)
	s.snapFrames.Store(r.Watermark)
	s.ack = ackMark{r.AckSeq, r.Processed}
	return s, nil
}

// Attach creates a fresh session directory under the key of meta.Name,
// first moving any leftover directory there aside as key.staleN (never
// deleting it). Resuming recovered state is Resume's job, so the store
// result is always nil: Attach keeps three results only because the
// capacity benchmark (bench/layers.go) calls it that way.
func (m *Manager) Attach(meta Meta) (*Session, *core.LiveStore, error) {
	if meta.Created.IsZero() {
		meta.Created = time.Now().UTC()
	}
	k := key(meta.Name)
	dir := filepath.Join(m.cfg.Dir, k)
	if _, err := os.Stat(dir); err == nil {
		if err := moveAside(dir); err != nil {
			return nil, nil, err
		}
	}
	bins, err := core.NewBinner(meta.Mins, meta.Maxs, meta.storeConfig(core.LiveStoreConfig{}))
	if err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	if err := writeMeta(dir, meta); err != nil {
		return nil, nil, err
	}
	w, err := openWAL(dir, 0, m.cfg)
	if err != nil {
		return nil, nil, err
	}
	return &Session{key: k, dir: dir, cfg: m.cfg, wal: w, bins: bins}, nil, nil
}

func moveAside(dir string) error {
	for i := 1; ; i++ {
		cand := fmt.Sprintf("%s.stale%d", dir, i)
		if _, err := os.Stat(cand); os.IsNotExist(err) {
			return os.Rename(dir, cand)
		}
	}
}

// key maps a session name onto its directory under the data dir: one path
// element, and a different one for every name. A name of 1–64 bytes of
// [A-Za-z0-9._-], not all dots, is its own key; any other name's key is
// "~" and 32 hex digits of its SHA-256, which no such name can spell.
func key(name string) string {
	safe := len(name) >= 1 && len(name) <= 64 && strings.Trim(name, ".") != ""
	for i := 0; safe && i < len(name); i++ {
		c := name[i]
		safe = c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '-' || c == '_' || c == '.'
	}
	if safe {
		return name
	}
	sum := sha256.Sum256([]byte(name))
	return "~" + hex.EncodeToString(sum[:16])
}
