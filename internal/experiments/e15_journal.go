package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"aims/internal/core"
	"aims/internal/journal"
	"aims/internal/server"
	"aims/internal/stream"
	"aims/internal/wire"
)

// E15Result reports journal_overhead: middle-tier ingest throughput with
// the WAL at each fsync policy versus durability disabled, and
// crash-recovery time as a function of the WAL tail length past the last
// snapshot.
type E15Result struct {
	Sessions int
	Frames   int // per session, ingest phase

	BaseFPS    float64            // durability disabled
	PolicyFPS  map[string]float64 // frames/s per fsync policy
	OverheadPC map[string]float64 // (base-policy)/base, percent

	TailFrames []int
	RecoverMS  []float64
}

// RunE15 measures the durability layer's two costs. First, ingest: one
// loopback load is driven against a server with journaling off, then with
// the WAL at each fsync policy; the WAL rides the ingest
// path (framed, CRC'd and written before LiveStore.AppendFrames), so the
// throughput ratio is its overhead. Per-batch fsync pays a disk round
// trip every 256 frames and is expected to cost real throughput;
// interval-deferred fsync only adds the encode + page-cache write and
// must stay under 10%. Second, recovery: sessions are left crash-style
// on disk — a snapshot at a fixed watermark plus WAL tails of increasing
// length — and Manager.Recover is timed; cost is snapshot load +
// O(tail) replay, growing with the tail, not the session.
func RunE15(w io.Writer) E15Result {
	const (
		sessions = 1
		frames   = 65536
		batch    = 256
		reps     = 5
	)
	res := E15Result{
		Sessions:   sessions,
		Frames:     frames,
		PolicyFPS:  map[string]float64{},
		OverheadPC: map[string]float64{},
	}

	root, err := os.MkdirTemp("", "aims-e15-")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(root)

	// Every rep runs all modes back to back, so each policy run has a
	// baseline neighbour taken under the same machine conditions; the
	// reported overhead is the median of the per-rep paired ratios, which
	// cancels the slow drift that best-of/mean-of comparisons pick up.
	policies := []journal.FsyncPolicy{journal.FsyncBatch, journal.FsyncInterval, journal.FsyncOff}
	baseFPS := make([]float64, reps)
	polFPS := map[string][]float64{}
	for r := 0; r < reps; r++ {
		baseFPS[r] = e15Ingest(journal.Config{}, sessions, frames, batch)
		for _, pol := range policies {
			dir := filepath.Join(root, fmt.Sprintf("pol-%s-%d", pol, r))
			fps := e15Ingest(journal.Config{Dir: dir, Fsync: pol, SnapshotFrames: -1}, sessions, frames, batch)
			polFPS[pol.String()] = append(polFPS[pol.String()], fps)
		}
	}
	res.BaseFPS = median(baseFPS)

	tb := &Table{
		Title: fmt.Sprintf("E15 — journal_overhead: ingest throughput per fsync policy (%d session × %d frames, batch=%d)",
			sessions, frames, batch),
		Columns: []string{"fsync", "frames/s", "overhead"},
	}
	tb.AddRow("disabled", res.BaseFPS, "—")
	for _, pol := range policies {
		name := pol.String()
		overs := make([]float64, reps)
		for r := 0; r < reps; r++ {
			overs[r] = (baseFPS[r] - polFPS[name][r]) / baseFPS[r] * 100
		}
		res.PolicyFPS[name] = median(polFPS[name])
		res.OverheadPC[name] = median(overs)
		tb.AddRow(name, res.PolicyFPS[name], fmt.Sprintf("%.1f%%", res.OverheadPC[name]))
	}
	tb.Note("loopback middle tier, median of %d paired runs; the WAL is written before", reps)
	tb.Note("LiveStore.AppendFrames: 'batch' fsyncs every 256-frame batch, 'interval'")
	tb.Note("defers syncs to a 100 ms timer (target <10%%), 'off' leaves flushing to the")
	tb.Note("page cache ('off' can measure slower than 'interval': never syncing lets")
	tb.Note("dirty pages pile up for the kernel flusher). Loopback saturation is")
	tb.Note("~2000× real device rates; if the resulting WAL byte rate exceeds disk")
	tb.Note("bandwidth the run degenerates to disk-bound, which snapshot truncation and")
	tb.Note("device-paced ingest keep the production path out of")
	tb.Render(w)

	e15Recovery(w, root, &res)
	return res
}

// median returns the middle value of xs (mean of the middle pair for even
// lengths) without reordering the caller's slice.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// e15Ingest drives one loopback load and returns aggregate frames/s. An
// empty jcfg.Dir runs the server memory-only (the baseline). The clock
// starts after every session's handshake (session setup — journal dir,
// meta.json, their fsyncs — is one-time cost, not ingest) and stops at
// Flush — after every frame has passed the WAL and the store — but
// before Close, so the close-time snapshot stays out of the measure.
func e15Ingest(jcfg journal.Config, sessions, frames, batch int) float64 {
	srv := server.New(server.Config{
		QueueFrames: 8192,
		Store:       core.LiveStoreConfig{TimeBuckets: 256, ValueBins: 64},
		Journal:     jcfg,
	})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	const channels = 8
	vals := make([]float64, channels)
	for c := range vals {
		vals[c] = float64(c)
	}
	mins := make([]float64, channels)
	maxs := make([]float64, channels)
	for c := range mins {
		mins[c], maxs[c] = -1, float64(channels)
	}

	clients := make([]*wire.Client, sessions)
	for s := range clients {
		c, err := wire.Dial(addr.String())
		if err != nil {
			panic(err)
		}
		if _, err := c.Hello(wire.Hello{
			Rate: 1000, HorizonTicks: uint32(2 * frames),
			Name: fmt.Sprintf("e15-%d", s), Mins: mins, Maxs: maxs,
		}); err != nil {
			panic(err)
		}
		clients[s] = c
	}

	var wg sync.WaitGroup
	start := time.Now()
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(c *wire.Client) {
			defer wg.Done()
			local := make([]stream.Frame, batch)
			for tick := 0; tick < frames; tick += batch {
				for i := range local {
					local[i] = stream.Frame{T: float64(tick+i) / 1000, Values: vals}
				}
				if err := c.SendBatch(local); err != nil {
					panic(err)
				}
			}
			if _, err := c.Flush(); err != nil {
				panic(err)
			}
		}(clients[s])
	}
	wg.Wait()
	wall := time.Since(start)
	return float64(sessions*frames) / wall.Seconds()
}

// e15Recovery leaves crash-style session dirs on disk — a snapshot at
// snapAt frames plus an un-snapshotted WAL tail — and times
// Manager.Recover over each.
func e15Recovery(w io.Writer, root string, res *E15Result) {
	const (
		channels = 8
		batch    = 256
		snapAt   = 4096
		rate     = 1000.0
	)
	tails := []int{0, 8192, 32768, 65536}
	maxFrames := snapAt + tails[len(tails)-1]

	rng := rand.New(rand.NewSource(151))
	mins := make([]float64, channels)
	maxs := make([]float64, channels)
	for c := range mins {
		mins[c], maxs[c] = -10, 10
	}
	storeCfg := core.LiveStoreConfig{Rate: rate, HorizonTicks: 2 * maxFrames, TimeBuckets: 256, ValueBins: 64}
	meta := journal.Meta{
		Name: "e15", Rate: rate, HorizonTicks: 2 * maxFrames,
		TimeBuckets: 256, ValueBins: 64, Mins: mins, Maxs: maxs,
	}
	batches := make([][]stream.Frame, 0, maxFrames/batch)
	for at := 0; at < maxFrames; at += batch {
		b := make([]stream.Frame, batch)
		for i := range b {
			vals := make([]float64, channels)
			for c := range vals {
				vals[c] = rng.Float64()*20 - 10
			}
			b[i] = stream.Frame{T: float64(at+i) / rate, Values: vals}
		}
		batches = append(batches, b)
	}

	tb := &Table{
		Title:   fmt.Sprintf("E15 — recovery time: snapshot at %d frames + WAL tail replay", snapAt),
		Columns: []string{"tail frames", "recover (ms)", "recovered"},
	}
	for _, tail := range tails {
		dir := filepath.Join(root, fmt.Sprintf("tail-%d", tail))
		cfg := journal.Config{Dir: dir, Fsync: journal.FsyncOff, SnapshotFrames: -1}
		mgr, err := journal.OpenManager(cfg)
		if err != nil {
			panic(err)
		}
		jsess, _, err := mgr.Attach(meta)
		if err != nil {
			panic(err)
		}
		ls, err := core.NewLiveStore(mins, maxs, storeCfg)
		if err != nil {
			panic(err)
		}
		appended := 0
		for _, b := range batches {
			if appended == snapAt {
				if err := jsess.Snapshot(ls); err != nil {
					panic(err)
				}
			}
			if appended == snapAt+tail {
				break
			}
			jsess.AppendFrames(b, nil)
			ls.AppendFrames(b)
			appended += len(b)
		}
		// Crash-style abandon: no Close, no final snapshot.

		m2, err := journal.OpenManager(cfg)
		if err != nil {
			panic(err)
		}
		t0 := time.Now()
		recs, err := m2.Recover(storeCfg)
		if err != nil {
			panic(err)
		}
		ms := float64(time.Since(t0).Microseconds()) / 1000
		if len(recs) != 1 || recs[0].Processed != uint64(snapAt+tail) {
			panic(fmt.Sprintf("tail %d: recovered %+v", tail, recs))
		}
		res.TailFrames = append(res.TailFrames, tail)
		res.RecoverMS = append(res.RecoverMS, ms)
		tb.AddRow(tail, ms, fmt.Sprintf("%d frames", recs[0].Processed))
	}
	tb.Note("recovery = newest intact snapshot inverse-transformed back into a live cube,")
	tb.Note("then the WAL tail past the watermark replayed through AppendFrames: cost grows")
	tb.Note("with the un-snapshotted tail, not with session length")
	tb.Render(w)
}
