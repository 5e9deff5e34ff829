package server

import (
	"time"

	"aims/internal/core"
	"aims/internal/journal"
	"aims/internal/wire"
)

// owner is one entry of the name table (Server.names), the one place that
// decides who holds a session name. A name is live while a session holds it
// — connected, or draining after its reader exited — and parked once that
// session lost its link without a Close. Each change of state installs a
// new entry, so a timer or a waiting takeover can tell whether the entry it
// saw is still current. Anonymous sessions stay out of the table.
type owner struct {
	name     string
	channels int // the claimed shape: a Hello of another is refused
	rate     float64
	live     *session      // the holder; nil once parked
	left     chan struct{} // closed when the holder parks or frees the name

	// Parked: what a resume adopts.
	store  *core.LiveStore
	jsess  *journal.Session // nil on a memory-only server
	ackSeq uint64
	at     time.Time
	timer  *time.Timer
}

// claim settles a named session's name before journal.Attach and the
// Welcome: CodeOK, or the code a refused Hello's Welcome carries. A free
// name is claimed, and a parked one of the same shape adopted — sess
// resumes on its store, journal handle and watermark. A live one of
// the same shape is taken over, MQTT's client-ID rule: its link is closed
// quietly, and once that session has drained and parked — or, after a
// graceful Close, freed the name — the claim tries again. Another shape, or
// a takeover outlasting WriteTimeout (IdleTimeout without write deadlines),
// is refused with CodeDuplicate; Shutdown ends the wait with
// CodeShuttingDown. A refused Hello creates no session and no directory.
func (s *Server) claim(sess *session, h wire.Hello) wire.Code {
	mine := &owner{name: h.Name, channels: len(h.Mins), rate: h.Rate, live: sess, left: make(chan struct{})}
	wait := s.cfg.WriteTimeout
	if wait <= 0 {
		wait = s.cfg.IdleTimeout
	}
	expired := time.NewTimer(wait)
	defer expired.Stop()
	for {
		s.namesMu.Lock()
		o := s.names[h.Name]
		switch {
		case o == nil:
			s.names[h.Name] = mine
			s.namesMu.Unlock()
			return wire.CodeOK
		case o.channels != mine.channels || o.rate != mine.rate:
			s.namesMu.Unlock()
			return wire.CodeDuplicate
		case o.live == nil:
			s.drop(o)
			s.names[h.Name] = mine
			s.namesMu.Unlock()
			sess.store, sess.jsess, sess.ackSeq, sess.resumed = o.store, o.jsess, o.ackSeq, true
			return wire.CodeOK
		}
		s.namesMu.Unlock()
		o.live.conn.Close() // the old reader ends with no word to its device
		select {
		case <-o.left:
		case <-expired.C:
			return wire.CodeDuplicate
		case <-s.quit:
		}
		if s.isClosed() {
			return wire.CodeShuttingDown
		}
	}
}

// leave takes a drained session out of the registry — before its name
// moves on, so no fleet scans an adopted store twice — and ends its hold on
// the name, reporting whether it parked. A named session whose link dropped
// — no Close, no shutdown — parks. Any other makes its journal durable (a
// final snapshot, or at least a WAL sync, covers every stored frame) before
// freeing the name, so a fresh claim finds the journal key free as well.
func (s *Server) leave(sess *session) bool {
	if s.sessions.remove(sess.id) {
		s.metrics.sessionsActive.Add(-1)
	}
	if sess.name != "" && !sess.closeRequested && !s.isClosed() {
		s.park(sess)
		return true
	}
	if sess.jsess != nil {
		if err := sess.jsess.Close(sess.store); err != nil {
			s.cfg.Logf("session %d: durable close: %v", sess.id, err)
		}
	}
	s.release(sess)
	return false
}

// release frees a name sess holds live (a no-op for anonymous sessions).
func (s *Server) release(sess *session) {
	s.namesMu.Lock()
	defer s.namesMu.Unlock()
	if o := s.names[sess.name]; o != nil && o.live == sess {
		delete(s.names, sess.name)
		close(o.left)
	}
}

// park keeps sess's store, journal handle and watermark under its name for
// RetainTimeout; beyond RetainSessions parked names the longest-parked one
// is finalized.
func (s *Server) park(sess *session) {
	var evicted []*owner
	s.namesMu.Lock()
	for s.metrics.sessionsDetached.Value() >= int64(s.cfg.RetainSessions) {
		var oldest *owner
		for _, o := range s.names {
			if o.live == nil && (oldest == nil || o.at.Before(oldest.at)) {
				oldest = o
			}
		}
		evicted = append(evicted, oldest)
		s.drop(oldest)
	}
	live := s.names[sess.name]
	p := &owner{name: sess.name, channels: live.channels, rate: live.rate,
		store: sess.store, jsess: sess.jsess, ackSeq: sess.ackSeq, at: time.Now()}
	p.timer = time.AfterFunc(s.cfg.RetainTimeout, func() { s.expire(p) })
	s.names[sess.name] = p
	s.metrics.sessionsDetached.Add(1)
	close(live.left)
	s.namesMu.Unlock()
	for _, o := range evicted {
		s.finalize(o)
	}
}

// drop removes a parked entry; callers hold namesMu.
func (s *Server) drop(p *owner) {
	p.timer.Stop()
	delete(s.names, p.name)
	s.metrics.sessionsDetached.Add(-1)
}

// expire is a parked name's retention timer: the device never came back.
func (s *Server) expire(p *owner) {
	s.namesMu.Lock()
	current := s.names[p.name] == p // else adopted or finalized meanwhile
	if current {
		s.drop(p)
	}
	s.namesMu.Unlock()
	if current {
		s.cfg.Logf("parked session %q expired unclaimed (ack=%d)", p.name, p.ackSeq)
		s.finalize(p)
	}
}

// finalize releases parked state that will not be resumed: a final
// snapshot covers its frames and its journal key is freed.
func (s *Server) finalize(p *owner) {
	if p.jsess != nil {
		if err := p.jsess.Close(p.store); err != nil {
			s.cfg.Logf("parked session %q: durable close: %v", p.name, err)
		}
	}
}

// finalizeAllParked empties the name table once Shutdown has seen every
// handler exit, so every entry left is parked.
func (s *Server) finalizeAllParked() {
	s.namesMu.Lock()
	all := make([]*owner, 0, len(s.names))
	for _, p := range s.names {
		s.drop(p)
		all = append(all, p)
	}
	s.namesMu.Unlock()
	for _, p := range all {
		s.finalize(p)
	}
}

// DetachedCount reports sessions parked awaiting reconnection.
func (s *Server) DetachedCount() int { return int(s.metrics.sessionsDetached.Value()) }
