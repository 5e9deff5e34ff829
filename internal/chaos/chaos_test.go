package chaos_test

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"aims/internal/chaos"
	"aims/internal/server"
	"aims/internal/stream"
	"aims/internal/wire"
)

const (
	chanCount = 2
	rate      = 1000.0
	// maxBackoff caps driveResilient's reconnect backoff.
	maxBackoff = 100 * time.Millisecond
)

func ranges() (mins, maxs []float64) {
	mins = make([]float64, chanCount)
	maxs = make([]float64, chanCount)
	for i := range mins {
		mins[i] = -1
		maxs[i] = 1
	}
	return
}

// deviceFrames synthesises a deterministic frame stream: both runs of an
// equivalence test feed bit-identical inputs.
func deviceFrames(n int) []stream.Frame {
	out := make([]stream.Frame, n)
	for i := range out {
		vals := make([]float64, chanCount)
		for c := range vals {
			vals[c] = math.Sin(float64(i)*0.01 + float64(c))
		}
		out[i] = stream.Frame{T: float64(i) / rate, Values: vals}
	}
	return out
}

func startServer(t *testing.T, scheme, dataDir string) (*server.Server, string) {
	t.Helper()
	cfg := server.Config{
		QueueFrames:   2048,
		IdleTimeout:   10 * time.Second,
		Heartbeat:     200 * time.Millisecond,
		WriteTimeout:  2 * time.Second,
		RetainTimeout: 30 * time.Second,
		Policy:        server.PolicyBlock,
	}
	if dataDir != "" {
		cfg.Journal.Dir = dataDir
		cfg.Journal.SnapshotFrames = -1 // snapshot only at close: identical final files
	}
	srv := server.New(cfg)
	if _, err := srv.RecoverSessions(); err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start(scheme + "://127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv, addr.String()
}

func hello(name string) wire.Hello {
	mins, maxs := ranges()
	return wire.Hello{Rate: rate, HorizonTicks: 1 << 15, Name: name, Mins: mins, Maxs: maxs}
}

// driveResilient streams frames through a ResilientClient in fixed-size
// batches, forcing extra disconnects through the proxy until at least
// minDisconnects occurred, then flushes and gracefully closes.
func driveResilient(t *testing.T, addr string, p *chaos.Proxy, name string, frames []stream.Frame, minDisconnects int) *wire.ResilientClient {
	t.Helper()
	rc, w, err := wire.DialResilient(wire.ResilientConfig{
		Addr:        addr,
		Window:      4,
		Timeout:     2 * time.Second,
		Heartbeat:   100 * time.Millisecond,
		BaseBackoff: 5 * time.Millisecond,
		MaxBackoff:  maxBackoff,
		MaxAttempts: -1,
		Seed:        7,
		Logf:        t.Logf,
	}, hello(name))
	if err != nil {
		t.Fatalf("dial through proxy: %v", err)
	}
	if w.Code != wire.CodeOK {
		t.Fatalf("registration code = %v, want ok", w.Code)
	}
	const batch = 64
	for at := 0; at < len(frames); at += batch {
		end := at + batch
		if end > len(frames) {
			end = len(frames)
		}
		if err := rc.SendBatch(frames[at:end]); err != nil {
			t.Fatalf("send at %d: %v", at, err)
		}
		// Force a cable pull mid-stream if the PRNG is under-delivering
		// faults, so every run crosses the disconnect floor.
		if p != nil && at > 0 && at%(len(frames)/4) < batch && int(p.Disconnects()) < minDisconnects {
			p.CutAll()
		}
	}
	for p != nil && int(p.Disconnects()) < minDisconnects {
		p.CutAll()
		if _, err := rc.Flush(); err != nil {
			t.Fatalf("flush while forcing disconnects: %v", err)
		}
	}
	if _, err := rc.Flush(); err != nil {
		t.Fatalf("final flush: %v", err)
	}
	return rc
}

// TestExactlyOnceUnderFaults is the tentpole property test: a device
// streams through a 5% cut / 5% reset fault proxy with at least three
// forced disconnects, and the journaled store must come out bit-identical
// to a fault-free control run — every frame appended exactly once, no
// losses, no duplicates. The faulted run repeats over every transport
// (the proxy listens and dials the scheme under test, so over ws the
// faults land between WebSocket framing and wire framing); all runs are
// held against one fault-free TCP control snapshot, which doubles as a
// cross-transport equivalence check on the stored bytes. Corruption
// stays off: the wire carries no payload checksum, so flipped value
// bytes would be stored silently (see TestCorruptionSurvival).
func TestExactlyOnceUnderFaults(t *testing.T) {
	frames := deviceFrames(6000)

	// Control run, no proxy, plain client over TCP.
	ctrlDir := t.TempDir()
	_, ctrlAddr := startServer(t, "tcp", ctrlDir)
	c, err := wire.Dial(ctrlAddr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Hello(hello("glove")); err != nil {
		t.Fatal(err)
	}
	const batch = 64
	for at := 0; at < len(frames); at += batch {
		end := at + batch
		if end > len(frames) {
			end = len(frames)
		}
		if err := c.SendBatch(frames[at:end]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Close(); err != nil {
		t.Fatal(err)
	}
	want := readSnapshot(t, ctrlDir, "glove")

	for _, scheme := range []string{"tcp", "ws"} {
		t.Run(scheme, func(t *testing.T) {
			// Faulted run: device → proxy → server all speak this scheme.
			faultDir := t.TempDir()
			srv, addr := startServer(t, scheme, faultDir)
			p, err := chaos.New(addr, chaos.Config{
				Listen:    scheme + "://127.0.0.1:0",
				Seed:      42,
				CutRate:   0.05,
				ResetRate: 0.05,
				Logf:      t.Logf,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			rc := driveResilient(t, p.Addr(), p, "glove", frames, 3)
			if got := p.Disconnects(); got < 3 {
				t.Fatalf("disconnects = %d, want >= 3", got)
			}
			if rc.Reconnects() == 0 {
				t.Fatal("client never reconnected despite forced disconnects")
			}
			t.Logf("faults: disconnects=%d cuts=%d resets=%d reconnects=%d replayed=%d dups=%d",
				p.Disconnects(), p.Cuts(), p.Resets(), rc.Reconnects(), rc.ReplayedBatches(), rc.DupBatches())

			// Zero loss, zero duplication, visible at the query layer before
			// the byte layer: the count must be exact.
			r, err := rc.Query(wire.Query{Kind: wire.QueryCount, Channel: 0, T0: 0, T1: 30})
			if err != nil {
				t.Fatalf("count query: %v", err)
			}
			if r.Value != float64(len(frames)) {
				t.Fatalf("count after faults = %v, want %d (lost or duplicated frames)", r.Value, len(frames))
			}
			// Recovery latency is judged over the stream, before Close (the
			// scope the retired E19 runner measured). A Close whose ack is cut
			// resumes the closed session with nothing to replay; recovery
			// after Close is checked below, across a restart.
			t.Run("recovery", func(t *testing.T) { checkRecovery(t, rc) })
			if _, err := rc.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			checkOneDirPerName(t, faultDir)

			// Bit-identity: the graceful close snapshots each store; the
			// snapshot bytes (sealed-store serialisation, deterministic since
			// PR2) must match exactly, as must the watermark+CRC in the file
			// names.
			got := readSnapshot(t, faultDir, "glove")
			if got.name != want.name {
				t.Fatalf("snapshot names diverge: faulted %s vs control %s", got.name, want.name)
			}
			if !bytes.Equal(got.data, want.data) {
				t.Fatalf("stores not bit-identical: %d vs %d bytes", len(got.data), len(want.data))
			}

			// Recovery after Close: a server restarted over the data dir
			// resumes the closed session at its full watermark.
			ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				t.Fatal(err)
			}
			checkResumesClosed(t, scheme, faultDir, "glove", len(frames))
		})
	}
}

// checkRecovery asserts every reconnect recorded its recovery latency and
// the p99 (nearest rank) stays under 4×maxBackoff: full-jitter sleeps are
// capped at maxBackoff, so a slower recovery means a reconnect stalled.
func checkRecovery(t *testing.T, rc *wire.ResilientClient) {
	t.Helper()
	outages := rc.Outages()
	if uint64(len(outages)) != rc.Reconnects() {
		t.Fatalf("%d outages recorded for %d reconnects", len(outages), rc.Reconnects())
	}
	slices.Sort(outages)
	p99 := outages[int(math.Ceil(0.99*float64(len(outages))))-1]
	t.Logf("recovery: %d outages, p50=%s p99=%s", len(outages), outages[len(outages)/2], p99)
	if p99 >= 4*maxBackoff {
		t.Fatalf("recovery p99 %s >= 4×max-backoff %s", p99, 4*maxBackoff)
	}
}

// checkOneDirPerName fails on a glove~N directory — a resume that raced its
// own dying link must take that link's state over, never fork the name
// into a second journal — and on a .staleN one: a Close whose ack was cut
// must resume the closed session, never register fresh and move its
// directory aside.
func checkOneDirPerName(t *testing.T, dataDir string) {
	t.Helper()
	entries, err := os.ReadDir(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		switch name := e.Name(); {
		case strings.Contains(name, "~"):
			t.Errorf("session name forked: %s beside its first directory", name)
		case strings.Contains(name, ".stale"):
			t.Errorf("closed session moved aside as %s (a retried Close registered fresh)", name)
		}
	}
}

// checkResumesClosed restarts a server over dataDir and requires the closed
// session name to resume with CodeResumed at exactly n frames, all of them
// in its store.
func checkResumesClosed(t *testing.T, scheme, dataDir, name string, n int) {
	t.Helper()
	srv, addr := startServer(t, scheme, dataDir)
	if got, _ := srv.RecoveredSessions(); got != 1 {
		t.Fatalf("recovered %d sessions, want 1", got)
	}
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Abort()
	w, err := c.Hello(hello(name))
	if err != nil || w.Code != wire.CodeResumed || w.AckSeq != uint64(n) {
		t.Fatalf("resume after restart: code=%v ack=%d err=%v, want resumed at %d", w.Code, w.AckSeq, err, n)
	}
	r, err := c.Query(wire.Query{Kind: wire.QueryCount, Channel: 0, T0: 0, T1: 30})
	if err != nil || r.Value != float64(n) {
		t.Fatalf("count after restart = %v (err %v), want %d", r.Value, err, n)
	}
}

type snapshot struct {
	name string
	data []byte
}

// readSnapshot waits for and returns the session's final snapshot file
// (the graceful close writes it before the connection is released, but
// the test observes the filesystem, so allow a beat).
func readSnapshot(t *testing.T, dataDir, session string) snapshot {
	t.Helper()
	dir := filepath.Join(dataDir, session)
	deadline := time.Now().Add(5 * time.Second)
	for {
		matches, _ := filepath.Glob(filepath.Join(dir, "snap-*.aims"))
		if len(matches) == 1 {
			data, err := os.ReadFile(matches[0])
			if err != nil {
				t.Fatal(err)
			}
			return snapshot{name: filepath.Base(matches[0]), data: data}
		}
		if time.Now().After(deadline) {
			t.Fatalf("session %s: found %d snapshots in %s, want 1", session, len(matches), dir)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestMemoryOnlyParkResume drops the link repeatedly against a server with
// no journal at all: the park/resume path alone must keep the session
// lossless, proving resilience is not a durability side effect.
func TestMemoryOnlyParkResume(t *testing.T) {
	frames := deviceFrames(4000)
	_, addr := startServer(t, "tcp", "")
	p, err := chaos.New(addr, chaos.Config{Seed: 99, CutRate: 0.03, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	rc := driveResilient(t, p.Addr(), p, "tracker", frames, 3)
	r, err := rc.Query(wire.Query{Kind: wire.QueryCount, Channel: 0, T0: 0, T1: 30})
	if err != nil {
		t.Fatalf("count query: %v", err)
	}
	if r.Value != float64(len(frames)) {
		t.Fatalf("count = %v, want %d", r.Value, len(frames))
	}
	if _, err := rc.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if rc.Reconnects() == 0 {
		t.Fatal("no reconnects recorded")
	}
}

// TestBlackholePartition parks the link in a byte-swallowing partition:
// the client's deadlines and heartbeat must detect the half-open link,
// and the stream must complete exactly once after the partition heals.
func TestBlackholePartition(t *testing.T) {
	frames := deviceFrames(2000)
	_, addr := startServer(t, "tcp", "")
	p, err := chaos.New(addr, chaos.Config{Seed: 5, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	rc, _, err := wire.DialResilient(wire.ResilientConfig{
		Addr:        p.Addr(),
		Window:      4,
		Timeout:     300 * time.Millisecond, // tight: the partition must trip it fast
		Heartbeat:   100 * time.Millisecond,
		BaseBackoff: 5 * time.Millisecond,
		MaxBackoff:  100 * time.Millisecond,
		MaxAttempts: -1,
		Seed:        11,
		Logf:        t.Logf,
	}, hello("hmd"))
	if err != nil {
		t.Fatal(err)
	}
	half := len(frames) / 2
	for at := 0; at < half; at += 50 {
		if err := rc.SendBatch(frames[at : at+50]); err != nil {
			t.Fatal(err)
		}
	}
	// Partition mid-stream. Sends into the blackhole stall on the read
	// deadline, the client marks the link broken and re-dials; the healed
	// proxy lets the resume through. CutAll drops the wedged old conns so
	// the server's reader wakes promptly too.
	p.Partition(400 * time.Millisecond)
	p.CutAll()
	for at := half; at < len(frames); at += 50 {
		if err := rc.SendBatch(frames[at : at+50]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rc.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := rc.Query(wire.Query{Kind: wire.QueryCount, Channel: 0, T0: 0, T1: 30})
	if err != nil {
		t.Fatal(err)
	}
	if r.Value != float64(len(frames)) {
		t.Fatalf("count = %v, want %d", r.Value, len(frames))
	}
	if _, err := rc.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptionSurvival runs with byte corruption enabled. The wire
// framing has no payload checksum, so corrupted values can be stored
// silently — the assertion here is weaker by design: nothing hangs and
// nothing panics. Desynced framing surfaces as decode errors and
// reconnects; a corrupted batch offset trips the server's forward-gap
// guard, which can surface as a terminal client error. Errors and
// frame-count drift are reported, not failed.
func TestCorruptionSurvival(t *testing.T) {
	frames := deviceFrames(2000)
	_, addr := startServer(t, "tcp", "")
	p, err := chaos.New(addr, chaos.Config{Seed: 3, CorruptRate: 0.02, CutRate: 0.01, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// The handshake itself rides the faulty link, so even the initial dial
	// may fail; retry a few times before concluding anything.
	var rc *wire.ResilientClient
	for attempt := 0; attempt < 5; attempt++ {
		rc, _, err = wire.DialResilient(wire.ResilientConfig{
			Addr:        p.Addr(),
			Window:      4,
			Timeout:     2 * time.Second,
			BaseBackoff: 5 * time.Millisecond,
			MaxBackoff:  100 * time.Millisecond,
			MaxAttempts: 20,
			Seed:        13,
			Logf:        t.Logf,
		}, hello(fmt.Sprintf("noisy-%d", attempt)))
		if err == nil {
			break
		}
		t.Logf("corruption run: dial attempt %d failed: %v", attempt, err)
	}
	if err != nil {
		t.Skipf("corruption run: handshake never survived the fault schedule: %v", err)
	}
	sent := 0
	for at := 0; at < len(frames); at += 50 {
		if err := rc.SendBatch(frames[at : at+50]); err != nil {
			t.Logf("corruption run: send at %d ended the session: %v", at, err)
			rc.Abort()
			return
		}
		sent = at + 50
	}
	stored, err := rc.Flush()
	if err != nil {
		t.Logf("corruption run: flush ended the session: %v", err)
		rc.Abort()
		return
	}
	t.Logf("corruption run: stored=%d sent=%d reconnects=%d", stored, sent, rc.Reconnects())
	if _, err := rc.Close(); err != nil {
		t.Logf("corruption run: close: %v", err)
	}
}

// TestProxyDeterminism pins the fault schedule to the seed. Only the
// per-connection draws (reset decision, sub-seeds) are fully reproducible
// across runs — per-chunk draws depend on TCP read segmentation, which the
// kernel does not promise to repeat — so this test drives the reset
// schedule alone: same seed, same dial sequence, same reset pattern.
func TestProxyDeterminism(t *testing.T) {
	schedule := func(seed int64) string {
		_, addr := startServer(t, "tcp", "")
		p, err := chaos.New(addr, chaos.Config{Seed: seed, ResetRate: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		pattern := make([]byte, 0, 24)
		for i := 0; i < 24; i++ {
			before := p.Resets()
			c, err := wire.Dial(p.Addr())
			if err != nil {
				// Refused outright: the accept loop had already drawn reset.
				pattern = append(pattern, 'R')
				continue
			}
			// An accept-then-reset surfaces on the first read; probe with
			// the handshake.
			c.Timeout = time.Second
			_, herr := c.Hello(hello(fmt.Sprintf("det-%d", i)))
			if herr != nil || p.Resets() > before {
				pattern = append(pattern, 'R')
				c.Abort()
				continue
			}
			pattern = append(pattern, '.')
			if _, err := c.Close(); err != nil {
				t.Fatalf("conn %d close: %v", i, err)
			}
		}
		return string(pattern)
	}
	s1 := schedule(1234)
	s2 := schedule(1234)
	if s1 != s2 {
		t.Fatalf("same seed diverged:\n  run 1: %s\n  run 2: %s", s1, s2)
	}
	if s1 == "........................" {
		t.Fatalf("ResetRate 0.3 over 24 dials produced zero resets: %s", s1)
	}
	t.Logf("reset schedule: %s", s1)
}
