package server

import (
	"time"

	"aims/internal/core"
	"aims/internal/fleet"
	"aims/internal/journal"
	"aims/internal/wire"
)

// owner is one entry of the session table's names (Server.names), the one
// place that decides who holds a session name and the one place a session
// adopts state. A name is live while a session holds it — connected, or
// draining after its reader exited — and parked once that session left
// (leave) or once RecoverSessions found it on disk. The retention timer,
// RetainSessions eviction and shutdown retire it, the one way an entry
// leaves: it stays in the table, not adoptable, until any journal it holds
// is closed, and a claim for the name waits meanwhile. Parking and
// adoption install a new entry, so a timer can tell whether the entry it
// saw is still current. An anonymous session holds no name: the table
// keeps it only among the live sessions.
type owner struct {
	name     string
	channels int // the claimed shape: a Hello of another is refused
	rate     float64
	live     *session      // the holder; nil once parked
	leaving  bool          // no longer adoptable: expired, evicted, shut down, or its holder taken over
	left     chan struct{} // closed when the holder parks or the entry is deleted

	// Parked: what a resume adopts. A nil store waits on disk.
	store     *core.LiveStore
	jsess     *journal.Session // open only beside a store
	ackSeq    uint64
	recovered bool // parked by RecoverSessions
	at        time.Time
	timer     *time.Timer
}

func (o *owner) parked() bool { return o.live == nil && !o.leaving }

// claim settles a named session's name before journal.Attach and the
// Welcome: CodeOK, or the code a refused Hello's Welcome carries. A free
// name is claimed, and a parked one of the same shape adopted. A live one
// of the same shape is taken over, MQTT's client-ID rule: its link is closed
// quietly, and once that session has drained and parked — a Close retried
// after a lost CloseAck included — the claim tries again; so does a claim
// that finds its name leaving. Another shape, or a wait outlasting
// WriteTimeout, is refused with CodeDuplicate; Shutdown ends the wait with
// CodeShuttingDown. A refused Hello creates no session and no directory.
func (s *Server) claim(sess *session, h wire.Hello) wire.Code {
	mine := &owner{name: h.Name, channels: len(h.Mins), rate: h.Rate, live: sess, left: make(chan struct{})}
	expired := time.NewTimer(s.cfg.WriteTimeout)
	defer expired.Stop()
	for {
		s.namesMu.Lock()
		o := s.names[h.Name]
		switch {
		case o == nil:
			s.names[h.Name] = mine
			s.namesMu.Unlock()
			sess.held = mine
			return wire.CodeOK
		case o.channels != mine.channels || o.rate != mine.rate:
			s.namesMu.Unlock()
			return wire.CodeDuplicate
		case o.parked():
			s.unpark(o)
			s.names[h.Name] = mine
			s.namesMu.Unlock()
			sess.held = mine
			s.adopt(sess, o)
			return wire.CodeOK
		}
		if o.live != nil {
			o.leaving = true    // its resume, if not yet announced, never counts
			o.live.conn.Close() // the old reader ends with no word to its device
		}
		s.namesMu.Unlock()
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

// adopt resumes sess on parked state p, faulting a store-less p in at the
// larger watermark (a shed leaves p's ahead of the journal's). If the load
// fails, sess keeps nothing of p and registers fresh; if the reopen fails,
// it serves the loaded frames without durability.
func (s *Server) adopt(sess *session, p *owner) {
	if p.store != nil {
		sess.store, sess.jsess, sess.ackSeq, sess.resumed = p.store, p.jsess, p.ackSeq, true
		if p.jsess != nil {
			sess.jbase = p.jsess.Processed()
		}
		return
	}
	rec, err := s.journal.Load(p.name, s.cfg.Store)
	if err != nil {
		s.cfg.Logf("session %q: fault-in failed, registering fresh: %v", p.name, err)
		return
	}
	s.cfg.Logf("session %q: faulted in %d frames (%d from snapshot)", p.name, rec.Processed, rec.Watermark)
	sess.store, sess.resumed = rec.Store, true
	sess.ackSeq = max(p.ackSeq, rec.AckSeq)
	if sess.jsess, err = s.journal.Resume(rec); err != nil {
		s.cfg.Logf("session %q: journal resume failed: %v", p.name, err)
		s.metrics.journalDegraded.Inc()
	}
	sess.jbase = rec.Processed
}

// leave takes a drained session out of the table and parks a named one —
// as its directory once a final snapshot covers its store, else with it —
// in one lock hold, so no fleet scans an adopted store twice.
func (s *Server) leave(sess *session) {
	var p *owner
	if sess.held != nil {
		p = &owner{name: sess.name, channels: sess.store.Channels(), rate: sess.rate, ackSeq: sess.ackSeq}
		if j := sess.jsess; j != nil && j.Checkpoint(sess.store) == nil && !j.Degraded() {
			j.Close(nil) // releases the files and drops the log: the snapshot holds every frame
		} else {
			p.store, p.jsess = sess.store, j
		}
	}
	var evicted *owner
	s.namesMu.Lock()
	delete(s.live, sess.id)
	if p != nil {
		evicted = s.park(p)
	}
	s.namesMu.Unlock()
	if evicted != nil {
		s.retire(evicted)
	}
}

// park installs p, parked, under its name for RetainTimeout, waking any
// claim waiting on the live entry it replaces. At RetainSessions parked
// names the longest-parked one leaves: park unparks it and returns it, for
// the caller to retire once it has released namesMu, which it holds.
func (s *Server) park(p *owner) (evicted *owner) {
	p.left = make(chan struct{})
	p.at = time.Now()
	if s.parked >= s.cfg.RetainSessions {
		for _, o := range s.names {
			if o.parked() && (evicted == nil || o.at.Before(evicted.at)) {
				evicted = o
			}
		}
		s.unpark(evicted)
	}
	if live := s.names[p.name]; live != nil {
		close(live.left)
	}
	p.timer = time.AfterFunc(s.cfg.RetainTimeout, func() { s.expire(p) })
	s.names[p.name] = p
	s.parked++
	return evicted
}

// unpark ends p's parked state — it is adopted or leaving; callers hold
// namesMu.
func (s *Server) unpark(p *owner) {
	p.timer.Stop()
	p.leaving = true
	s.parked--
}

// expire ends p's parking if it is still parked: its retention ran out, or
// the server is shutting down.
func (s *Server) expire(p *owner) {
	s.namesMu.Lock()
	current := s.names[p.name] == p && p.parked() // else adopted or leaving already
	if current {
		s.unpark(p)
	}
	s.namesMu.Unlock()
	if current {
		s.cfg.Logf("parked session %q leaves unclaimed (ack=%d)", p.name, p.ackSeq)
		s.retire(p)
	}
}

// retire is how every entry leaves the table: once any journal it holds is
// closed (a final snapshot, or a WAL sync), o is deleted and its left
// channel closed. A store-less entry's directory stays on disk as it is.
func (s *Server) retire(o *owner) {
	if o.jsess != nil {
		if err := o.jsess.Close(o.store); err != nil {
			s.cfg.Logf("session %q: durable close: %v", o.name, err)
		}
	}
	s.namesMu.Lock()
	if s.names[o.name] == o {
		delete(s.names, o.name)
	}
	close(o.left)
	s.namesMu.Unlock()
}

// retireAll empties the name table once Shutdown has seen every handler
// exit, so every entry left is parked or already leaving, and returns when
// all of them are gone.
func (s *Server) retireAll() {
	s.namesMu.Lock()
	all := make([]*owner, 0, len(s.names))
	for _, o := range s.names {
		all = append(all, o)
	}
	s.namesMu.Unlock()
	for _, o := range all {
		s.expire(o)
		<-o.left
	}
}

// tableCounts reports how many sessions are live and how many names are
// parked: what aims_sessions_active and aims_sessions_detached read.
func (s *Server) tableCounts() (live, parked int) {
	s.namesMu.Lock()
	defer s.namesMu.Unlock()
	return len(s.live), s.parked
}

// liveSessions copies the live session set out of the table.
func (s *Server) liveSessions() []*session {
	s.namesMu.Lock()
	defer s.namesMu.Unlock()
	out := make([]*session, 0, len(s.live))
	for _, sess := range s.live {
		out = append(out, sess)
	}
	return out
}

// fleetTargets is the live session set as a fleet query scans it, taken in
// one lock hold: a session live across the snapshot appears exactly once,
// and one registering or leaving meanwhile either appears or does not —
// the per-session high-water-mark contract covers it.
func (s *Server) fleetTargets() []fleet.Session {
	s.namesMu.Lock()
	defer s.namesMu.Unlock()
	out := make([]fleet.Session, 0, len(s.live))
	for _, sess := range s.live {
		out = append(out, fleet.Session{ID: sess.id, Class: sess.class, Store: sess.store})
	}
	return out
}
