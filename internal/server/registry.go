package server

import (
	"sync"
	"sync/atomic"

	"aims/internal/fleet"
)

// registryShards is the session-map shard count (power of two). Session
// IDs are assigned sequentially, so masking the low bits spreads
// consecutive registrations round-robin across shards and register/
// unregister/lookup contention stays flat at tens of thousands of
// sessions instead of serialising on one mutex.
const registryShards = 64

// registry is the server's sharded session map; n counts its sessions.
type registry struct {
	shards [registryShards]registryShard
	n      atomic.Int64
}

type registryShard struct {
	mu sync.Mutex
	m  map[uint64]*session
}

func newRegistry() *registry {
	r := &registry{}
	for i := range r.shards {
		r.shards[i].m = make(map[uint64]*session)
	}
	return r
}

func (r *registry) shard(id uint64) *registryShard {
	return &r.shards[id&(registryShards-1)]
}

func (r *registry) put(id uint64, sess *session) {
	sh := r.shard(id)
	sh.mu.Lock()
	if _, ok := sh.m[id]; !ok {
		r.n.Add(1)
	}
	sh.m[id] = sess
	sh.mu.Unlock()
}

// remove deletes the session and reports whether it was present (a
// session can be unregistered at most once).
func (r *registry) remove(id uint64) bool {
	sh := r.shard(id)
	sh.mu.Lock()
	_, ok := sh.m[id]
	if ok {
		delete(sh.m, id)
		r.n.Add(-1)
	}
	sh.mu.Unlock()
	return ok
}

func (r *registry) len() int {
	return int(r.n.Load())
}

// forEach calls fn on every registered session, holding only one shard
// lock at a time.
func (r *registry) forEach(fn func(*session)) {
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		for _, sess := range sh.m {
			fn(sess)
		}
		sh.mu.Unlock()
	}
}

// snapshot collects the live session set as the fleet layer sees it, in
// one walk holding one shard lock at a time. This is the set a fleet query
// scans: a session registered for the whole scan appears exactly once;
// sessions registering or unregistering while the walk crosses shards may
// or may not appear — the per-session high-water-mark contract covers
// them, and no session is ever double-counted (each lives in exactly one
// shard).
func (r *registry) snapshot() []fleet.Session {
	out := make([]fleet.Session, 0, r.len())
	r.forEach(func(sess *session) {
		out = append(out, fleet.Session{ID: sess.id, Class: sess.class, Store: sess.store})
	})
	return out
}
