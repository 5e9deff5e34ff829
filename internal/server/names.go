package server

import (
	"time"

	"aims/internal/core"
	"aims/internal/journal"
	"aims/internal/wire"
)

// owner is one entry of the name table (Server.names), the one place that
// decides who holds a session name and the one place a session adopts
// state. A name is live while a session holds it — connected, or draining
// after its reader exited — and parked once that session left, by a dropped
// link, a Close or a shutdown, or once RecoverSessions rebuilt it from disk.
// The retention timer, RetainSessions eviction and shutdown retire it, the
// one way an entry leaves: it stays in the table, not adoptable, until its
// journal is durable, and a claim for the name waits meanwhile. Parking
// and adoption install a new entry, so a timer can tell whether the entry
// it saw is still current. Anonymous sessions stay out of the table.
type owner struct {
	name     string
	channels int // the claimed shape: a Hello of another is refused
	rate     float64
	live     *session      // the holder; nil once parked
	leaving  bool          // parked, but no longer adoptable: expired, evicted or shut down
	left     chan struct{} // closed when the holder parks or the entry is deleted

	// Parked: what a resume adopts.
	store  *core.LiveStore
	jsess  *journal.Session   // nil on a memory-only server, and until a recovered entry is resumed
	rec    *journal.Recovered // set when RecoverSessions parked it: claim resumes its journal
	ackSeq uint64
	at     time.Time
	timer  *time.Timer
}

func (o *owner) parked() bool { return o.live == nil && !o.leaving }

// claim settles a named session's name before journal.Attach and the
// Welcome: CodeOK, or the code a refused Hello's Welcome carries. A free
// name is claimed, and a parked one of the same shape adopted — sess
// resumes on its store, journal handle and watermark. A live one of the
// same shape is taken over, MQTT's client-ID rule: its link is closed
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
		s.namesMu.Unlock()
		if o.live != nil {
			o.live.conn.Close() // the old reader ends with no word to its device
		}
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

// adopt resumes sess on parked state p. A session recovered from disk gets
// its journal reopened here; should that fail, it serves the recovered
// frames without durability, and the counter makes the gap visible.
func (s *Server) adopt(sess *session, p *owner) {
	sess.store, sess.jsess, sess.ackSeq, sess.resumed = p.store, p.jsess, p.ackSeq, true
	if p.rec == nil {
		return
	}
	jsess, err := s.journal.Resume(p.rec)
	if err != nil {
		s.cfg.Logf("session %q: journal resume failed: %v", p.name, err)
		s.metrics.journalDegraded.Inc()
		return
	}
	sess.jsess = jsess
}

// leave takes a drained session out of the registry — before its name
// moves on, so no fleet scans an adopted store twice — and parks a named
// one, whether its link dropped, it sent Close or the server shut down.
func (s *Server) leave(sess *session) {
	if s.sessions.remove(sess.id) {
		s.metrics.sessionsActive.Add(-1)
	}
	if sess.held != nil {
		s.park(&owner{name: sess.name, channels: sess.store.Channels(), rate: sess.rate,
			store: sess.store, jsess: sess.jsess, ackSeq: sess.ackSeq})
	}
}

// park installs p, parked, under its name for RetainTimeout, waking any
// claim waiting on the live entry it replaces; beyond RetainSessions parked
// names the longest-parked one leaves.
func (s *Server) park(p *owner) {
	p.left = make(chan struct{})
	p.at = time.Now()
	var evicted []*owner
	s.namesMu.Lock()
	for s.metrics.sessionsDetached.Value() >= int64(s.cfg.RetainSessions) {
		var oldest *owner
		for _, o := range s.names {
			if o.parked() && (oldest == nil || o.at.Before(oldest.at)) {
				oldest = o
			}
		}
		s.unpark(oldest)
		evicted = append(evicted, oldest)
	}
	if live := s.names[p.name]; live != nil {
		close(live.left)
	}
	p.timer = time.AfterFunc(s.cfg.RetainTimeout, func() { s.expire(p) })
	s.names[p.name] = p
	s.metrics.sessionsDetached.Add(1)
	s.namesMu.Unlock()
	for _, o := range evicted {
		s.retire(o)
	}
}

// unpark ends p's parked state — it is adopted or leaving; callers hold
// namesMu.
func (s *Server) unpark(p *owner) {
	p.timer.Stop()
	p.leaving = true
	s.metrics.sessionsDetached.Add(-1)
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

// retire is how every entry leaves the table: once its journal is durable
// — a final snapshot covers its store's frames — o is deleted and its left
// channel closed. A recovered entry never resumed has no journal open, and
// its directory stays on disk as it is.
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
// exit, so every entry left is parked or already leaving; their final
// snapshots run in parallel, and it returns when all of them are gone.
func (s *Server) retireAll() {
	s.namesMu.Lock()
	all := make([]*owner, 0, len(s.names))
	for _, o := range s.names {
		all = append(all, o)
	}
	s.namesMu.Unlock()
	for _, o := range all {
		go s.expire(o)
	}
	for _, o := range all {
		<-o.left
	}
}

// DetachedCount reports sessions parked awaiting their device: those that
// left, by a dropped link or a Close, and those recovered from disk.
func (s *Server) DetachedCount() int { return int(s.metrics.sessionsDetached.Value()) }
