package journal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"aims/internal/core"
)

// Manager owns the data directory: one subdirectory per session, holding
// meta.json, snap-*.aims snapshots and wal-*.log segments. It recovers
// sessions at startup, hands out Session handles at registration, and
// matches reconnecting devices to their recovered state by session name.
type Manager struct {
	cfg Config

	mu      sync.Mutex
	active  map[string]bool
	orphans map[string]*Recovered
}

// Recovered is a session rebuilt from disk at startup, waiting for its
// device to reconnect (or for an operator to query it via adoption).
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
// Manager. Call Recover before serving to adopt any prior state.
func OpenManager(cfg Config) (*Manager, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("journal: empty data dir")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	return &Manager{
		cfg:     cfg,
		active:  map[string]bool{},
		orphans: map[string]*Recovered{},
	}, nil
}

// Recover scans the data directory and rebuilds every session found
// there: newest intact snapshot (if any) inverse-transformed back into a
// live store, then the WAL tail replayed through AppendEncoded straight out
// of the record bytes, the path live ingest takes. Sessions
// that cannot be recovered at all are logged and left on disk untouched.
// storeCfg supplies the non-shape knobs (seal threshold, observer); the
// shape comes from each session's own meta/snapshot.
func (m *Manager) Recover(storeCfg core.LiveStoreConfig) ([]*Recovered, error) {
	entries, err := os.ReadDir(m.cfg.Dir)
	if err != nil {
		return nil, err
	}
	var out []*Recovered
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		rec, err := m.recoverSession(e.Name(), storeCfg)
		if err != nil {
			m.cfg.Logf("journal: session dir %s not recoverable: %v", e.Name(), err)
			continue
		}
		m.mu.Lock()
		m.orphans[rec.Key] = rec
		m.mu.Unlock()
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

func (m *Manager) recoverSession(key string, storeCfg core.LiveStoreConfig) (*Recovered, error) {
	dir := filepath.Join(m.cfg.Dir, key)
	meta, err := readMeta(dir)
	if err != nil {
		return nil, err
	}
	cfg := storeCfg
	cfg.Rate = meta.Rate
	cfg.HorizonTicks = meta.HorizonTicks
	cfg.TimeBuckets = meta.TimeBuckets
	cfg.ValueBins = meta.ValueBins

	ls, watermark, ok := loadLatestSnapshot(dir, cfg, m.cfg.Logf)
	if !ok {
		watermark = 0
		ls, err = core.NewLiveStore(meta.Mins, meta.Maxs, cfg)
		if err != nil {
			return nil, err
		}
	}
	res, err := replayWAL(dir, watermark, meta.Channels(), func(start uint64, frames []byte) error {
		// Per-frame validation errors are deterministic (the original
		// ingest skipped the same frames), so they are not corruption.
		ls.AppendEncoded(frames)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if res.truncated {
		m.cfg.Logf("journal: session %s: WAL tail truncated at last valid record", key)
	}
	ack := res.processed
	if res.ackSeq > ack {
		ack = res.ackSeq
	}
	return &Recovered{
		Key:       key,
		Meta:      meta,
		Store:     ls,
		Processed: res.processed,
		Watermark: watermark,
		AckSeq:    ack,
		Truncated: res.truncated,
	}, nil
}

// OrphanCount reports recovered sessions not yet re-adopted by a device.
func (m *Manager) OrphanCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.orphans)
}

// Orphans returns the recovered sessions awaiting adoption, sorted by key.
func (m *Manager) Orphans() []*Recovered {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Recovered, 0, len(m.orphans))
	for _, r := range m.orphans {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Attach registers a session with the durability layer. If a recovered
// session with the same (sanitized) name and a matching shape (channel
// count and rate) is waiting, it is adopted: the returned store is the
// recovered one, the WAL resumes at the recovered frame index, and
// Session.Resumed reports true. Otherwise a fresh session directory is
// created (any stale leftover under the same key is moved aside, never
// deleted).
func (m *Manager) Attach(meta Meta) (*Session, *core.LiveStore, error) {
	if meta.Created.IsZero() {
		meta.Created = time.Now().UTC()
	}
	base := sanitizeKey(meta.Name)

	m.mu.Lock()
	key := base
	for n := 2; m.active[key]; n++ {
		key = fmt.Sprintf("%s~%d", base, n)
	}
	m.active[key] = true
	orphan := m.orphans[key]
	if orphan != nil {
		if orphan.Meta.Channels() == meta.Channels() && orphan.Meta.Rate == meta.Rate {
			delete(m.orphans, key)
		} else {
			orphan = nil
		}
	}
	m.mu.Unlock()

	sess, ls, err := m.attachDisk(key, meta, orphan)
	if err != nil {
		m.release(key)
		if orphan != nil {
			// Put the orphan back so a retry can still find it.
			m.mu.Lock()
			m.orphans[key] = orphan
			m.mu.Unlock()
		}
		return nil, nil, err
	}
	return sess, ls, nil
}

func (m *Manager) attachDisk(key string, meta Meta, orphan *Recovered) (*Session, *core.LiveStore, error) {
	dir := filepath.Join(m.cfg.Dir, key)
	if orphan != nil {
		w, err := openWAL(dir, orphan.Processed, m.cfg)
		if err != nil {
			return nil, nil, err
		}
		s := &Session{
			key: key, dir: dir, cfg: m.cfg, meta: orphan.Meta,
			wal: w, width: orphan.Meta.Channels(), resumed: true, mgr: m,
		}
		s.processed.Store(orphan.Processed)
		s.snapFrames.Store(orphan.Watermark)
		s.clientSeq.Store(orphan.AckSeq)
		return s, orphan.Store, nil
	}
	// A leftover directory here belongs to an unrecoverable or
	// shape-mismatched prior session; preserve it out of the way.
	if _, err := os.Stat(dir); err == nil {
		if err := moveAside(dir); err != nil {
			return nil, nil, err
		}
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
	s := &Session{
		key: key, dir: dir, cfg: m.cfg, meta: meta,
		wal: w, width: meta.Channels(), mgr: m,
	}
	return s, nil, nil
}

func (m *Manager) release(key string) {
	m.mu.Lock()
	delete(m.active, key)
	m.mu.Unlock()
}

func moveAside(dir string) error {
	for i := 1; ; i++ {
		cand := fmt.Sprintf("%s.stale%d", dir, i)
		if _, err := os.Stat(cand); os.IsNotExist(err) {
			return os.Rename(dir, cand)
		}
	}
}

// sanitizeKey maps an arbitrary session name onto a safe directory name.
func sanitizeKey(name string) string {
	const maxKey = 64
	b := make([]byte, 0, len(name))
	for i := 0; i < len(name) && len(b) < maxKey; i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_', c == '.':
			b = append(b, c)
		default:
			b = append(b, '_')
		}
	}
	// "." and ".." would escape the data dir; all-dots collapses to "_".
	allDots := true
	for _, c := range b {
		if c != '.' {
			allDots = false
			break
		}
	}
	if len(b) == 0 || allDots {
		return "session"
	}
	return string(b)
}
