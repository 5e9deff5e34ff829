package server

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"aims/internal/journal"
	"aims/internal/wire"
)

func durableConfig(dir string) Config {
	return Config{
		Store: testStoreCfg(),
		Journal: journal.Config{
			Dir:            dir,
			SnapshotFrames: 200,
		},
	}
}

func exactAggregates(t *testing.T, c *wire.Client, t1 float64) (count, avg float64) {
	t.Helper()
	r, err := c.Query(wire.Query{Kind: wire.QueryCount, Channel: 0, T0: 0, T1: t1})
	if err != nil {
		t.Fatalf("count query: %v", err)
	}
	count = r.Value
	r, err = c.Query(wire.Query{Kind: wire.QueryAverage, Channel: 0, T0: 0, T1: t1})
	if err != nil {
		t.Fatalf("average query: %v", err)
	}
	return count, r.Value
}

// TestDurableShutdownRestartServesSameAnswers is the durable-drain
// round trip: ingest with journaling on, shut the server down with the
// session still attached (the drain must make it durable), restart a new
// server over the same data dir, reconnect under the same name, and
// require the resumed session to answer exactly as the original did — no
// frames lost — then keep streaming into it.
func TestDurableShutdownRestartServesSameAnswers(t *testing.T) {
	const (
		channels = 3
		frames   = 500
		extra    = 100
		rate     = 100.0
	)
	dir := t.TempDir()
	mins, maxs := ranges(channels)
	hello := wire.Hello{Rate: rate, HorizonTicks: 2000, Name: "glove tracker", Mins: mins, Maxs: maxs}
	all := clientFrames(1, frames+extra, channels)

	srv1, addr := startServer(t, durableConfig(dir))
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	w, err := c.Hello(hello)
	if err != nil {
		t.Fatal(err)
	}
	if w.Code != wire.CodeOK {
		t.Fatalf("first registration code = %v, want ok", w.Code)
	}
	for at := 0; at < frames; at += 100 {
		if err := c.SendBatch(all[at : at+100]); err != nil {
			t.Fatal(err)
		}
	}
	if stored, err := c.Flush(); err != nil || stored != frames {
		t.Fatalf("flush: stored=%d err=%v, want %d", stored, err, frames)
	}
	count0, avg0 := exactAggregates(t, c, 10)
	if count0 != frames {
		t.Fatalf("pre-restart count = %v, want %d", count0, frames)
	}

	// Shut down with the session still connected: the drain owes us a
	// final snapshot (or WAL sync) covering every stored frame.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv1.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	c.Abort()

	srv2, addr2 := startServer(t, durableConfig(dir))
	n, err := srv2.RecoverSessions()
	if err != nil || n != 1 {
		t.Fatalf("recovered %d sessions (err=%v), want 1", n, err)
	}
	if rec, orph := srv2.RecoveredSessions(); rec != 1 || orph != 1 {
		t.Fatalf("recovered=%d orphans=%d before reconnect, want 1/1", rec, orph)
	}

	c2, err := wire.Dial(addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Abort()
	w2, err := c2.Hello(hello)
	if err != nil {
		t.Fatal(err)
	}
	if w2.Code != wire.CodeResumed {
		t.Fatalf("reconnect code = %v, want resumed", w2.Code)
	}
	if _, orph := srv2.RecoveredSessions(); orph != 0 {
		t.Fatalf("orphans = %d after adoption, want 0", orph)
	}
	count1, avg1 := exactAggregates(t, c2, 10)
	if count1 != count0 || math.Abs(avg1-avg0) > 1e-12 {
		t.Fatalf("recovered answers drifted: count %v->%v avg %v->%v", count0, count1, avg0, avg1)
	}

	// The resumed session keeps ingesting where the old one stopped.
	if err := c2.SendBatch(all[frames : frames+extra]); err != nil {
		t.Fatal(err)
	}
	if stored, err := c2.Flush(); err != nil || stored != extra {
		t.Fatalf("post-resume flush: stored=%d err=%v, want %d", stored, err, extra)
	}
	count2, _ := exactAggregates(t, c2, 10)
	if count2 != float64(frames+extra) {
		t.Fatalf("post-resume count = %v, want %d", count2, frames+extra)
	}
	if _, err := c2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestJournalOpenFailureFallsBackToMemoryOnly points the journal at an
// unusable path (an existing regular file): the server must still serve
// sessions, just without durability.
func TestJournalOpenFailureFallsBackToMemoryOnly(t *testing.T) {
	occupied := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(occupied, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	srv, addr := startServer(t, durableConfig(occupied))

	mins, maxs := ranges(2)
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Abort()
	w, err := c.Hello(wire.Hello{Rate: 100, HorizonTicks: 1000, Name: "memfall", Mins: mins, Maxs: maxs})
	if err != nil {
		t.Fatal(err)
	}
	if w.Code != wire.CodeOK {
		t.Fatalf("registration code = %v, want ok", w.Code)
	}
	if err := c.SendBatch(clientFrames(0, 50, 2)); err != nil {
		t.Fatal(err)
	}
	if stored, err := c.Flush(); err != nil || stored != 50 {
		t.Fatalf("flush: stored=%d err=%v, want 50", stored, err)
	}
	for _, info := range srv.Sessions() {
		if info.Durable {
			t.Fatalf("session %d claims durability with a broken journal dir", info.ID)
		}
	}
	// One count for the journal that would not open, one for the named
	// session served without it.
	if n := srv.metrics.journalDegraded.Value(); n != 2 {
		t.Fatalf("aims_journal_degraded_total = %d after one memory-only session, want 2", n)
	}
}

// journalSessions registers each named session on a durable server over
// cfg's data dir, streams it frames[name] frames, closes it and shuts the
// server down.
func journalSessions(t *testing.T, cfg Config, frames map[string]int) {
	t.Helper()
	srv, addr := startServer(t, cfg)
	for name, n := range frames {
		c := mustHello(t, addr, namedHello(name, 2), wire.CodeOK, 0)
		if err := c.SendBatch(clientFrames(1, n, 2)); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// countOf is the COUNT over everything c's session holds.
func countOf(t *testing.T, c *wire.Client) float64 {
	t.Helper()
	r, err := c.Query(wire.Query{Kind: wire.QueryCount, T0: 0, T1: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	return r.Value
}

// TestAnonymousSessionIsNotJournaled: no Hello can resume an anonymous
// session, so a durable server keeps it in memory only. It leaves no
// directory, and after a restart the next anonymous device starts from
// zero instead of being handed the earlier one's frames.
func TestAnonymousSessionIsNotJournaled(t *testing.T) {
	dir := t.TempDir()
	srv, addr := startServer(t, durableConfig(dir))
	c := mustHello(t, addr, namedHello("", 2), wire.CodeOK, 0)
	if err := c.SendBatch(clientFrames(1, 100, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Close(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if dirs := sessionDirs(t, dir); len(dirs) != 0 {
		t.Fatalf("session directories %v, want none", dirs)
	}

	srv2, addr2 := startServer(t, durableConfig(dir))
	if n, err := srv2.RecoverSessions(); err != nil || n != 0 {
		t.Fatalf("recovered %d sessions, err=%v; want 0", n, err)
	}
	c2 := mustHello(t, addr2, namedHello("", 2), wire.CodeOK, 0)
	if n := countOf(t, c2); n != 0 {
		t.Fatalf("a new anonymous session holds %v frames, want 0", n)
	}
}

// TestSimilarNamesKeepTheirOwnSessions: "glove_7" and "glove 7" are two
// devices. Live at once they journal into two directories, neither forked
// with a ~N suffix, and after a restart each resumes its own frames.
func TestSimilarNamesKeepTheirOwnSessions(t *testing.T) {
	cfg := durableConfig(t.TempDir())
	frames := map[string]int{"glove_7": 300, "glove 7": 50}
	srv, addr := startServer(t, cfg)
	var clients []*wire.Client
	for _, name := range []string{"glove_7", "glove 7"} {
		c := mustHello(t, addr, namedHello(name, 2), wire.CodeOK, 0)
		if err := c.SendBatch(clientFrames(1, frames[name], 2)); err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
	}
	for _, c := range clients {
		if _, err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	dirs := sessionDirs(t, cfg.Journal.Dir)
	if len(dirs) != 2 {
		t.Fatalf("session directories %v, want two", dirs)
	}
	for _, d := range dirs {
		if regexp.MustCompile(`~\d+$`).MatchString(d) {
			t.Fatalf("session directory %s is a forked name (all: %v)", d, dirs)
		}
	}

	srv2, addr2 := startServer(t, cfg)
	if n, err := srv2.RecoverSessions(); err != nil || n != 2 {
		t.Fatalf("recovered %d sessions, err=%v; want 2", n, err)
	}
	for name, n := range frames {
		c := mustHello(t, addr2, namedHello(name, 2), wire.CodeResumed, uint64(n))
		if got := countOf(t, c); got != float64(n) {
			t.Fatalf("%q resumed with COUNT %v, want its own %d", name, got, n)
		}
	}
}

// TestRecoveredSessionsFollowRetainRules: a session recovered from disk is
// parked like one whose link dropped. It can be resumed within
// RetainTimeout and is gone after it, its directory untouched; no more than
// RetainSessions are parked; and a Hello of another shape for its name is
// refused.
func TestRecoveredSessionsFollowRetainRules(t *testing.T) {
	t.Run("timeout", func(t *testing.T) {
		cfg := durableConfig(t.TempDir())
		cfg.RetainTimeout = 200 * time.Millisecond
		journalSessions(t, cfg, map[string]int{"A": 40, "B": 60})
		before := treeBytes(t, filepath.Join(cfg.Journal.Dir, "B"))

		srv, addr := startServer(t, cfg)
		if n, err := srv.RecoverSessions(); err != nil || n != 2 {
			t.Fatalf("recovered %d sessions, err=%v; want 2", n, err)
		}
		if rec, orph := srv.RecoveredSessions(); rec != 2 || orph != 2 || parkedCount(srv) != 2 {
			t.Fatalf("recovered=%d orphans=%d detached=%d, want 2/2/2", rec, orph, parkedCount(srv))
		}
		mustHello(t, addr, namedHello("A", 2), wire.CodeResumed, 40)
		waitDetached(t, srv, 0) // B expires unclaimed
		if _, orph := srv.RecoveredSessions(); orph != 0 {
			t.Fatalf("orphans = %d after the timeout, want 0", orph)
		}
		after := treeBytes(t, filepath.Join(cfg.Journal.Dir, "B"))
		if len(after) != len(before) {
			t.Fatalf("B's directory holds %d files after expiry, had %d", len(after), len(before))
		}
		for name, b := range before {
			if !bytes.Equal(after[name], b) {
				t.Fatalf("B/%s changed after expiry", name)
			}
		}
	})
	t.Run("cap", func(t *testing.T) {
		cfg := durableConfig(t.TempDir())
		cfg.RetainSessions = 2
		journalSessions(t, cfg, map[string]int{"A": 10, "B": 20, "C": 30})
		srv, addr := startServer(t, cfg)
		if n, err := srv.RecoverSessions(); err != nil || n != 3 {
			t.Fatalf("recovered %d sessions, err=%v; want 3", n, err)
		}
		if rec, orph := srv.RecoveredSessions(); rec != 3 || orph != 2 || parkedCount(srv) != 2 {
			t.Fatalf("recovered=%d orphans=%d detached=%d, want 3/2/2", rec, orph, parkedCount(srv))
		}
		mustHello(t, addr, namedHello("C", 3), wire.CodeDuplicate, 0)
		mustHello(t, addr, namedHello("C", 2), wire.CodeResumed, 30)
	})
}

// treeBytes reads every file of one directory, keyed by name.
func treeBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}
