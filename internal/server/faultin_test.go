package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aims/internal/journal"
	"aims/internal/wire"
)

// assertTree fails unless dir holds exactly the files of want, byte for
// byte.
func assertTree(t *testing.T, dir string, want map[string][]byte) {
	t.Helper()
	got := treeBytes(t, dir)
	if len(got) != len(want) {
		t.Fatalf("%s holds %d files, want %d", dir, len(got), len(want))
	}
	for name, b := range want {
		if !bytes.Equal(got[name], b) {
			t.Fatalf("%s/%s changed", dir, name)
		}
	}
}

// shutdown shuts srv down, failing the test if the drain overruns.
func shutdown(t *testing.T, srv *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// parkedEntry returns the name table's parked entry for name, or nil.
func parkedEntry(srv *Server, name string) *owner {
	srv.namesMu.Lock()
	defer srv.namesMu.Unlock()
	if o := srv.names[name]; o != nil && o.parked() {
		return o
	}
	return nil
}

// gloveTemplate journals one 28-channel glove session of frames frames
// through the journal API, without a Close (no snapshot: the WAL alone
// holds them), cuts its log with a torn record, and returns the directory's
// files keyed by name.
func gloveTemplate(t *testing.T, frames int) (journal.Meta, map[string][]byte) {
	t.Helper()
	dir := t.TempDir()
	mgr, err := journal.OpenManager(journal.Config{Dir: dir, SnapshotFrames: -1})
	if err != nil {
		t.Fatal(err)
	}
	h := namedHello("glove", 28)
	meta := journal.Meta{Name: h.Name, Rate: h.Rate, HorizonTicks: int(h.HorizonTicks),
		TimeBuckets: 16, ValueBins: 16, Mins: h.Mins, Maxs: h.Maxs}
	jsess, _, err := mgr.Attach(meta)
	if err != nil {
		t.Fatal(err)
	}
	all := clientFrames(1, frames, 28)
	for at := 0; at < frames; at += 50 {
		jsess.AppendFrames(all[at:at+50], nil)
	}
	if err := jsess.Close(nil); err != nil {
		t.Fatal(err)
	}
	files := treeBytes(t, filepath.Join(dir, "glove"))
	files["wal-00000001.log"] = append(files["wal-00000001.log"], 0x40, 0, 0, 0, 0xde, 0xad) // a torn record
	if err := json.Unmarshal(files["meta.json"], &meta); err != nil {
		t.Fatal(err)
	}
	return meta, files
}

// TestRecover1024SessionDirectories: a restart over 1024 WAL-only glove
// sessions reads their meta.json files and nothing else. The parked
// entries hold no store — under 4 KiB each, where a whole store at this
// small geometry is some 11 KiB — an unclaimed directory, torn tail and
// all, is left byte for byte as it was through RecoverSessions and its
// expiry, and each session's first claim faults it in at its exact count
// and counts one resume.
func TestRecover1024SessionDirectories(t *testing.T) {
	const sessions, frames = 1024, 200
	meta, files := gloveTemplate(t, frames)
	dataDir := t.TempDir()
	want := make([]map[string][]byte, sessions)
	for i := range want {
		meta.Name = fmt.Sprintf("glove-%04d", i)
		b, err := json.Marshal(meta)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = map[string][]byte{"meta.json": b}
		for name, data := range files {
			if name != "meta.json" {
				want[i][name] = data
			}
		}
		dir := filepath.Join(dataDir, meta.Name)
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, data := range want[i] {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	cfg := durableConfig(dataDir)
	unchanged := func() {
		t.Helper()
		for i := range want {
			assertTree(t, filepath.Join(dataDir, fmt.Sprintf("glove-%04d", i)), want[i])
		}
	}

	// Parked unclaimed until the retention expires: nothing is written.
	cfg.RetainTimeout = 300 * time.Millisecond
	srv := New(cfg)
	if n, err := srv.RecoverSessions(); err != nil || n != sessions {
		t.Fatalf("recovered %d sessions, err=%v; want %d", n, err, sessions)
	}
	unchanged()
	if !waitFor(func() bool { return parkedCount(srv) == 0 }) {
		t.Fatalf("%d sessions still parked past their retention", parkedCount(srv))
	}
	unchanged()
	shutdown(t, srv)

	cfg.RetainTimeout = time.Minute
	srv, addr := startServer(t, cfg)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if n, err := srv.RecoverSessions(); err != nil || n != sessions {
		t.Fatalf("recovered %d sessions, err=%v; want %d", n, err, sessions)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	growth := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / sessions
	if parked := parkedCount(srv); parked != sessions {
		t.Fatalf("%d sessions parked, want %d", parked, sessions)
	}
	if growth >= 4<<10 {
		t.Fatalf("heap grew %d B per parked session, want under 4 KiB", growth)
	}
	t.Logf("heap growth after RecoverSessions: %d B per session", growth)

	resumes := srv.metrics.resumesTotal.Value()
	for i := 0; i < sessions; i++ {
		c := mustHello(t, addr, namedHello(fmt.Sprintf("glove-%04d", i), 28), wire.CodeResumed, frames)
		if n := countOf(t, c); n != frames {
			t.Fatalf("glove-%04d resumed with COUNT %v, want %d", i, n, frames)
		}
		if i == 0 {
			// A store costs what the bound above keeps out of a parked entry.
			if cube := srv.Sessions()[0].StoreBytes.Cube; cube < 4<<10 {
				t.Fatalf("a faulted-in store's cube is %d B, not above the 4 KiB bound", cube)
			}
		}
		if _, err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if n := srv.metrics.resumesTotal.Value() - resumes; n != sessions {
		t.Fatalf("aims_session_resumes_total rose by %d over %d first claims", n, sessions)
	}
}

// openFileStall blocks the journal's next segment open while armed: the
// reopen at the end of a fault-in.
type openFileStall struct {
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (s *openFileStall) open(path string) (journal.File, error) {
	if s.armed.CompareAndSwap(true, false) {
		s.entered <- struct{}{}
		<-s.release
	}
	return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
}

// TestTakeoverDuringFaultInResumesOnce: a second Hello arrives while the
// first is still faulting the parked session in. It takes the session
// over: the first link is closed before its Welcome, the second resumes at
// the exact count, and the session counts one resume, not two.
func TestTakeoverDuringFaultInResumesOnce(t *testing.T) {
	stall := &openFileStall{entered: make(chan struct{}, 1), release: make(chan struct{})}
	cfg := durableConfig(t.TempDir())
	cfg.Journal.OpenFile = stall.open
	srv, addr := startServer(t, cfg)
	h := namedHello("X", 2)
	c := mustHello(t, addr, h, wire.CodeOK, 0)
	if err := c.SendBatch(clientFrames(1, 50, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	c.Abort()
	waitDetached(t, srv, 1)
	if o := parkedEntry(srv, "X"); o == nil || o.store != nil || o.jsess != nil {
		t.Fatalf("parked entry %+v, want one without a store or journal", o)
	}

	stall.armed.Store(true)
	first := helloAsync(t, addr, h)
	select {
	case <-stall.entered:
	case <-time.After(2 * time.Second):
		t.Fatal("the first claim never reopened the journal")
	}
	second := helloAsync(t, addr, h)
	if !waitFor(func() bool {
		srv.namesMu.Lock()
		defer srv.namesMu.Unlock()
		return srv.names["X"].leaving
	}) {
		t.Fatal("the second hello never took the faulting-in session over")
	}
	close(stall.release)
	if r := <-first; r.err == nil && r.w.Code == wire.CodeResumed {
		t.Fatalf("the taken-over claim was welcomed as resumed at %d", r.w.AckSeq)
	}
	r := <-second
	if r.err != nil || r.w.Code != wire.CodeResumed || r.w.AckSeq != 50 {
		t.Fatalf("welcome code=%v ack=%d err=%v, want resumed at 50", r.w.Code, r.w.AckSeq, r.err)
	}
	if n := countOf(t, r.c); n != 50 {
		t.Fatalf("COUNT = %v after the takeover, want 50", n)
	}
	if n := srv.metrics.resumesTotal.Value(); n != 1 {
		t.Fatalf("aims_session_resumes_total = %d, want 1", n)
	}
}

// TestFailedFaultInStartsFresh: a parked session whose meta.json is gone or
// unreadable cannot be faulted in, whether a restart found it or its link
// dropped. Its Hello registers a fresh session at ack 0, whatever watermark
// the parked entry held, and the bad directory is moved aside whole, not
// deleted.
func TestFailedFaultInStartsFresh(t *testing.T) {
	cfg := durableConfig(t.TempDir())
	journalSessions(t, cfg, map[string]int{"gone": 40, "garbled": 30})
	srv, addr := startServer(t, cfg)
	if n, err := srv.RecoverSessions(); err != nil || n != 2 {
		t.Fatalf("recovered %d sessions, err=%v; want 2", n, err)
	}
	c := mustHello(t, addr, namedHello("dropped", 2), wire.CodeOK, 0)
	if err := c.SendBatch(clientFrames(1, 25, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	c.Abort()
	waitDetached(t, srv, 3)
	if o := parkedEntry(srv, "dropped"); o == nil || o.ackSeq != 25 {
		t.Fatalf("parked entry %+v, want one acknowledged to 25", o)
	}
	for _, name := range []string{"gone", "dropped"} {
		if err := os.Remove(filepath.Join(cfg.Journal.Dir, name, "meta.json")); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(cfg.Journal.Dir, "garbled", "meta.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"gone", "garbled", "dropped"} {
		bad := treeBytes(t, filepath.Join(cfg.Journal.Dir, name))
		c := mustHello(t, addr, namedHello(name, 2), wire.CodeOK, 0)
		if n := countOf(t, c); n != 0 {
			t.Fatalf("%s: the fresh session holds %v frames, want 0", name, n)
		}
		assertTree(t, filepath.Join(cfg.Journal.Dir, name+".stale1"), bad)
	}
	if dirs := sessionDirs(t, cfg.Journal.Dir); len(dirs) != 6 {
		t.Fatalf("session directories %v, want the three fresh ones and the three moved aside", dirs)
	}
}

// TestRetiredFormatFaultInStartsFresh: a restart over a data directory
// holding a session an older version wrote — the journal's compat-pr44
// golden, whose log is wire frames records, a format this version refuses
// — parks it from its meta.json alone, leaving it as it was. A device of
// its shape claims it: the fault-in is refused, with a log naming the
// format, the device is welcomed fresh at ack 0, and the old directory is
// moved aside whole as compat.stale1, the golden byte for byte.
func TestRetiredFormatFaultInStartsFresh(t *testing.T) {
	golden := treeBytes(t, filepath.Join("..", "journal", "testdata", "compat-pr44", "compat"))
	var meta journal.Meta
	if err := json.Unmarshal(golden["meta.json"], &meta); err != nil {
		t.Fatal(err)
	}
	cfg := durableConfig(t.TempDir())
	var logMu sync.Mutex
	var logs []string
	cfg.Logf = func(format string, args ...interface{}) {
		logMu.Lock()
		defer logMu.Unlock()
		logs = append(logs, fmt.Sprintf(format, args...))
	}
	dir := filepath.Join(cfg.Journal.Dir, meta.Name)
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, b := range golden {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	srv, addr := startServer(t, cfg)
	if n, err := srv.RecoverSessions(); err != nil || n != 1 {
		t.Fatalf("recovered %d sessions, err=%v; want 1", n, err)
	}
	assertTree(t, dir, golden)
	h := wire.Hello{Name: meta.Name, Rate: meta.Rate, HorizonTicks: uint32(meta.HorizonTicks), Mins: meta.Mins, Maxs: meta.Maxs}
	c := mustHello(t, addr, h, wire.CodeOK, 0)
	if n := countOf(t, c); n != 0 {
		t.Fatalf("the fresh session holds %v frames, want 0", n)
	}
	assertTree(t, dir+".stale1", golden)
	logMu.Lock()
	defer logMu.Unlock()
	refused := false
	for _, l := range logs {
		refused = refused || strings.Contains(l, "fault-in failed") && strings.Contains(l, "frames record")
	}
	if !refused {
		t.Fatalf("no log of the refused fault-in naming the format in %q", logs)
	}
}

// TestShedWatermarkSurvivesFaultIn: on a shedding durable server a device
// sheds a batch, stores more frames, drops its link and resumes. The
// journal's frame index runs behind the device's acknowledged offset after
// the shed, so the Welcome's watermark must come from the parked entry.
func TestShedWatermarkSurvivesFaultIn(t *testing.T) {
	cfg, stall := stalledConfig(t, Config{Policy: PolicyShed, QueueFrames: 64})
	srv, addr := startServer(t, cfg)
	shedThenStore(t, srv, addr, stall)

	c := mustHello(t, addr, namedHello("X", 2), wire.CodeResumed, 160)
	if n := countOf(t, c); n != 144 {
		t.Fatalf("COUNT = %v after the fault-in, want the 144 stored frames", n)
	}
}

// TestShedWatermarkSurvivesRestart: the same device resumes at its own
// offset after a server restart too, with nothing but the journal to go
// by: the ack record of the shed carries the journal frame index its
// offset maps to, so the 64 frames stored after it count on top of it.
func TestShedWatermarkSurvivesRestart(t *testing.T) {
	cfg, stall := stalledConfig(t, Config{Policy: PolicyShed, QueueFrames: 64})
	srv, addr := startServer(t, cfg)
	shedThenStore(t, srv, addr, stall)
	shutdown(t, srv)

	srv, addr = startServer(t, cfg)
	if n, err := srv.RecoverSessions(); err != nil || n != 1 {
		t.Fatalf("recovered %d sessions, err=%v; want 1", n, err)
	}
	c := mustHello(t, addr, namedHello("X", 2), wire.CodeResumed, 160)
	if n := countOf(t, c); n != 144 {
		t.Fatalf("COUNT = %v after the restart, want the 144 stored frames", n)
	}
}

// shedThenStore has device X shed [80,96) — its first batch stalls the
// appender, and the 64-frame queue fills behind it — then store up to
// 160, 144 frames in all, and drop its link; it returns once X is parked.
func shedThenStore(t *testing.T, srv *Server, addr string, stall *appenderStall) {
	t.Helper()
	rs := dialRaw(t, addr, "X", 2)
	stallOnFirstBatch(t, rs, stall)
	for seq := 16; seq < 96; seq += 16 {
		rs.writeBatch(seq, 16, 2)
	}
	rs.flush()
	for seq := 16; seq < 96; seq += 16 {
		code := wire.CodeOK
		if seq == 80 { // the queue holds [16,80): 64 frames, full
			code = wire.CodeShed
		}
		rs.expectAck(seq, code)
	}
	stall.resume()
	rs.write(wire.MsgFlush, nil)
	rs.flush()
	if stored := rs.expectFlushAck(); stored != 80 {
		t.Fatalf("flush reports %d stored, want 80", stored)
	}
	for seq := 96; seq < 160; seq += 16 {
		rs.writeBatch(seq, 16, 2)
	}
	rs.write(wire.MsgFlush, nil)
	rs.flush()
	for seq := 96; seq < 160; seq += 16 {
		rs.expectAck(seq, wire.CodeOK)
	}
	if stored := rs.expectFlushAck(); stored != 144 {
		t.Fatalf("flush reports %d stored, want 144", stored)
	}
	rs.conn.Close()
	waitDetached(t, srv, 1)
}

// TestDurableSessionHoldsNoEngine: a snapshot is the count cube, not a
// sealed engine, so a durable session that has snapshotted, and one
// faulted back in from its snapshot, holds neither an engine nor a delta
// log — appends after the fault-in log none either — and at the default
// live geometry an approximate query walks the count cube, so it seals
// none either.
func TestDurableSessionHoldsNoEngine(t *testing.T) {
	cfg := durableConfig(t.TempDir())
	cfg.Journal.SnapshotFrames = 16
	srv, addr := startServer(t, cfg)
	h := namedHello("E", 2)
	cubeOnly := func(when string) {
		t.Helper()
		if b := srv.Sessions()[0].StoreBytes; b.Engine != 0 || b.Delta != 0 {
			t.Fatalf("%s: the store holds %+v, want no engine and no delta log", when, b)
		}
	}
	frames := clientFrames(1, 100, 2)
	c := mustHello(t, addr, h, wire.CodeOK, 0)
	if err := c.SendBatch(frames[:50]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if snaps, _ := filepath.Glob(filepath.Join(cfg.Journal.Dir, "E", "snap-*.aims")); len(snaps) != 1 {
		t.Fatalf("snapshots %v after 50 frames at one every 16, want one", snaps)
	}
	cubeOnly("after a snapshot")
	c.Abort()
	waitDetached(t, srv, 1)

	c = mustHello(t, addr, h, wire.CodeResumed, 50)
	cubeOnly("after the fault-in")
	if err := c.SendBatch(frames[50:]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	cubeOnly("after appends past the fault-in")
	if _, err := c.Query(wire.Query{Kind: wire.QueryApproxCount, T0: 0, T1: 1e6, Arg: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	cubeOnly("after an approximate query")
}

// TestParkedDurableSessionHoldsNoStore: however a durable session parks —
// a dropped link, a Close, a takeover, a shutdown or a restart — its entry
// keeps no store and no open journal, and a snapshot on disk covers every
// frame it stored, with no WAL record left beside it for a fault-in to
// read.
func TestParkedDurableSessionHoldsNoStore(t *testing.T) {
	cfg := durableConfig(t.TempDir())
	cfg.Journal.SnapshotFrames = -1 // only parking snapshots
	srv, addr := startServer(t, cfg)
	diskOnly := func(name string) {
		t.Helper()
		if o := parkedEntry(srv, name); o == nil || o.store != nil || o.jsess != nil {
			t.Fatalf("%s: parked entry %+v, want one without a store or journal", name, o)
		}
	}
	snapshotAt := func(name string, frames uint64) {
		t.Helper()
		if _, err := os.Stat(filepath.Join(cfg.Journal.Dir, name)); err != nil {
			t.Fatal(err)
		}
		found := false
		for f, b := range treeBytes(t, filepath.Join(cfg.Journal.Dir, name)) {
			var n uint64
			var crc uint32
			if k, _ := fmt.Sscanf(f, "snap-%016x-%08x.aims", &n, &crc); k == 2 && n == frames {
				found = true
			}
			if strings.HasPrefix(f, "wal-") && len(b) > 16 { // a segment header is 16 bytes
				t.Fatalf("%s: %s holds %d bytes of records the snapshot covers", name, f, len(b)-16)
			}
		}
		if !found {
			t.Fatalf("%s: no snapshot at %d frames", name, frames)
		}
	}
	send := func(name string, n int) *wire.Client {
		t.Helper()
		c := mustHello(t, addr, namedHello(name, 2), wire.CodeOK, 0)
		if err := c.SendBatch(clientFrames(1, n, 2)); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		return c
	}

	send("drop", 10).Abort()
	waitDetached(t, srv, 1)
	diskOnly("drop")
	snapshotAt("drop", 10)
	if _, err := send("close", 20).Close(); err != nil {
		t.Fatal(err)
	}
	diskOnly("close")
	snapshotAt("close", 20)
	send("takeover", 30)
	mustHello(t, addr, namedHello("takeover", 2), wire.CodeResumed, 30)
	snapshotAt("takeover", 30)
	send("shutdown", 40)
	shutdown(t, srv)
	snapshotAt("shutdown", 40)

	srv2 := New(cfg)
	t.Cleanup(func() { shutdown(t, srv2) })
	if n, err := srv2.RecoverSessions(); err != nil || n != 4 {
		t.Fatalf("recovered %d sessions, err=%v; want 4", n, err)
	}
	srv = srv2
	for _, name := range []string{"drop", "close", "takeover", "shutdown"} {
		diskOnly(name)
	}
}

// TestIdleFaultInLeavesNoSegment: each claim reopens the journal on a
// fresh WAL segment. A session that leaves again without a frame closes
// that segment empty, and it goes, so idle reconnects leave the directory
// as they found it instead of piling up files for the next fault-in to
// read.
func TestIdleFaultInLeavesNoSegment(t *testing.T) {
	cfg := durableConfig(t.TempDir())
	_, addr := startServer(t, cfg)
	c := mustHello(t, addr, namedHello("X", 2), wire.CodeOK, 0)
	if err := c.SendBatch(clientFrames(1, 30, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Close(); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(cfg.Journal.Dir, "X")
	before := treeBytes(t, dir)
	for i := 0; i < 3; i++ {
		c := mustHello(t, addr, namedHello("X", 2), wire.CodeResumed, 30)
		if _, err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	assertTree(t, dir, before)
}
