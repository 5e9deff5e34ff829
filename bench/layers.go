package main

import (
	"bufio"
	"context"
	"fmt"
	"math/rand"
	"net"
	"time"

	"aims/internal/core"
	"aims/internal/fleet"
	"aims/internal/journal"
	"aims/internal/propolyne"
	"aims/internal/sensors"
	"aims/internal/stream"
	"aims/internal/transport"
	"aims/internal/wavelet"
	"aims/internal/wire"
)

// The traced run's per-layer numbers come from outside the server: the
// harness replays the run's seeded inputs through each layer's public
// functions, in pipeline order, one span around each call. Every call is
// also charged the process CPU it burned, because a span's wall time is
// not CPU where a layer waits (a socket, a flush timer, an fsync), and the
// layer budget is a CPU budget.

const (
	replayBatches = 200 // batch pipeline ops
	replayQueries = 64  // query pipeline ops
	replayFleet   = 20  // fleet pipeline ops
	// microReps repeats calls that finish in about a microsecond inside one
	// span, so the span's own clock reads do not dominate what it measures.
	microReps = 100
)

// layerStat is one replayed call site: median wall self time and mean
// process CPU, both per single call.
type layerStat struct {
	WallUS float64 `json:"wall_us"`
	CPUUS  float64 `json:"cpu_us"`
	N      int     `json:"n"`
}

// replayer records replay spans and the CPU charged to each span name.
type replayer struct {
	tr   *tracer
	cpu  map[string]time.Duration
	reps map[string]int // single calls covered by one span of this name
}

// call runs fn under a span; fn performs the layer call reps times.
func (rp *replayer) call(name string, parent int, op uint64, reps int, fn func()) {
	c0 := selfCPU()
	i := rp.tr.begin(name, parent, op)
	fn()
	rp.tr.end(i)
	rp.cpu[name] += selfCPU() - c0
	rp.reps[name] = reps
}

func (rp *replayer) stats() map[string]layerStat {
	out := make(map[string]layerStat)
	for name, st := range selfByName(rp.tr.spans) {
		reps := rp.reps[name]
		if reps == 0 {
			continue // a grouping span, not a layer call
		}
		calls := float64(st.Count * reps)
		out[name] = layerStat{
			WallUS: st.MedianUS / float64(reps),
			CPUUS:  float64(rp.cpu[name]) / float64(time.Microsecond) / calls,
			N:      st.Count * reps,
		}
	}
	return out
}

// chanSource is the channel-backed TimedSource the server's session queue
// is: frames arrive one by one and a quiet source times out.
type chanSource chan stream.Frame

func (c chanSource) Next() (stream.Frame, bool) {
	f, ok := <-c
	return f, ok
}

func (c chanSource) NextTimeout(d time.Duration) (stream.Frame, bool, bool) {
	select {
	case f, ok := <-c:
		return f, ok, false
	default:
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case f, ok := <-c:
		return f, ok, false
	case <-t.C:
		return stream.Frame{}, false, true
	}
}

// echoPeer accepts one connection on a loopback listener and answers every
// message the way the server acknowledges it, with no work in between: a
// batch with a BatchAck, a query with a Result.
type echoPeer struct {
	ln   net.Listener
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	done chan struct{}
}

func newEchoPeer(endpoint string) (*echoPeer, error) {
	ln, err := transport.Listen(endpoint)
	if err != nil {
		return nil, err
	}
	p := &echoPeer{ln: ln, done: make(chan struct{})}
	go func() {
		defer close(p.done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br, bw := bufio.NewReaderSize(conn, 64<<10), bufio.NewWriter(conn)
		ack := wire.BatchAck{Code: wire.CodeOK, Stored: ingestBatch}.Encode()
		result := wire.Result{Kind: wire.QueryCount, Final: true, OK: true}.Encode()
		for {
			typ, _, err := wire.ReadMessage(br)
			if err != nil {
				return
			}
			if typ == wire.MsgBatch {
				err = wire.WriteMessage(bw, wire.MsgBatchAck, ack)
			} else {
				err = wire.WriteMessage(bw, wire.MsgResult, result)
			}
			if err != nil || bw.Flush() != nil {
				return
			}
		}
	}()
	conn, err := transport.Dial(ln.Addr().String())
	if err != nil {
		ln.Close()
		<-p.done
		return nil, err
	}
	p.conn = conn
	p.br, p.bw = bufio.NewReaderSize(conn, 64<<10), bufio.NewWriterSize(conn, 128<<10)
	return p, nil
}

// roundTrip sends one message and reads the peer's answer.
func (p *echoPeer) roundTrip(typ byte, payload []byte) error {
	if err := wire.WriteMessage(p.bw, typ, payload); err != nil {
		return err
	}
	if err := p.bw.Flush(); err != nil {
		return err
	}
	_, _, err := wire.ReadMessage(p.br)
	return err
}

func (p *echoPeer) close() {
	p.conn.Close()
	p.ln.Close()
	<-p.done
}

// replayResult is what the layer replay measured.
type replayResult struct {
	stats         map[string]layerStat
	bytesPerFrame float64 // wire bytes one batch message spends per frame
	spans         []span
}

// replayLayers runs the three pipelines and the one-off probes, and
// returns every call site's statistics. batch is the run's batch size.
func replayLayers(cfg runConfig, batch int) (*replayResult, error) {
	rp := &replayer{tr: newTracer(), cpu: map[string]time.Duration{}, reps: map[string]int{}}
	rng := rand.New(rand.NewSource(cfg.seed))
	m := &sessionModel{
		name: "replay", class: "cyberglove", rate: liveRate,
		horizon: liveHorizon(cfg.warmup + cfg.window), rec: gloveRecording(cfg.seed * 1000),
	}
	storeCfg := core.LiveStoreConfig{Rate: m.rate, HorizonTicks: m.horizon}
	newStore := func() (*core.LiveStore, error) { return core.NewLiveStore(m.rec.mins, m.rec.maxs, storeCfg) }
	var err error
	fail := func(e error) {
		if err == nil {
			err = e
		}
	}

	// --- batch pipeline: what one ingest batch passes through -----------
	tcp, err := newEchoPeer("tcp://127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer tcp.close()
	ws, err := newEchoPeer("ws://127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ws.close()

	queue := make(chanSource, 8192) // the server's default -queue depth
	handed := make(chan int, 4)     // AcquireFlushing holds at most two buffers in flight
	acquired := make(chan struct{})
	go func() {
		defer close(acquired)
		stream.AcquireFlushing(queue, 0, 0, func(b []stream.Frame) { handed <- len(b) })
	}()
	defer func() {
		close(queue)
		<-acquired
	}()

	walDir, err := cfg.dataDir("replay-wal")
	if err != nil {
		return nil, err
	}
	mgr, err := journal.OpenManager(journal.Config{Dir: walDir, SnapshotFrames: -1})
	if err != nil {
		return nil, err
	}
	meta := journal.Meta{
		Name: m.name, Rate: m.rate, HorizonTicks: m.horizon,
		TimeBuckets: timeBuckets, ValueBins: valueBins, Mins: m.rec.mins, Maxs: m.rec.maxs,
	}
	jsess, _, err := mgr.Attach(meta)
	if err != nil {
		return nil, err
	}

	plain, err := newStore()
	if err != nil {
		return nil, err
	}
	var payload []byte
	frames := make([]stream.Frame, 0, batch)
	for i := 0; i < replayBatches; i++ {
		opID := uint64(i + 1)
		frames = m.fill(frames, i*batch, batch)
		root := rp.tr.begin("replay.batch", -1, opID)
		rp.call("wire.encode_batch", root, opID, 1, func() {
			var e error
			payload, e = wire.AppendBatch(payload[:0], uint64(i*batch), frames, m.width())
			fail(e)
		})
		rp.call("transport.tcp_rtt", root, opID, 1, func() { fail(tcp.roundTrip(wire.MsgBatch, payload)) })
		var decoded wire.Batch
		rp.call("wire.decode_batch", root, opID, 1, func() {
			var e error
			decoded, e = wire.DecodeBatch(payload, m.width())
			fail(e)
		})
		rp.call("stream.handoff", root, opID, 1, func() {
			for _, f := range decoded.Frames {
				queue <- f
			}
			for got := 0; got < len(decoded.Frames); {
				got += <-handed
			}
		})
		rp.call("journal.append", root, opID, 1, func() { jsess.AppendFrames(decoded.Frames, nil) })
		rp.call("core.append", root, opID, 1, func() {
			_, e := plain.AppendFrames(decoded.Frames)
			fail(e)
		})
		rp.tr.end(root)
		rp.call("transport.ws_rtt", -1, opID, 1, func() { fail(ws.roundTrip(wire.MsgBatch, payload)) })
		if err != nil {
			return nil, err
		}
	}
	if jsess.Degraded() {
		return nil, fmt.Errorf("bench: replay journal shed durability")
	}

	// --- journal one-offs: snapshot, then recovery of what was written ---
	// journalAndStore appends one more batch to the WAL and to the store.
	next := replayBatches
	journalAndStore := func() error {
		frames = m.fill(frames, next*batch, batch)
		next++
		jsess.AppendFrames(frames, nil)
		_, e := plain.AppendFrames(frames)
		return e
	}
	for i := 0; i < 3; i++ {
		// 2 048 fresh frames between snapshots overflow the delta log, so the
		// seal inside each snapshot rebuilds — as it does in the server, whose
		// default snapshot spacing is 65 536 frames.
		for sent := 0; sent < 2048; sent += batch {
			if e := journalAndStore(); e != nil {
				return nil, e
			}
		}
		rp.call("journal.snapshot", -1, uint64(i+1), 1, func() { fail(jsess.Snapshot(plain)) })
	}
	if e := journalAndStore(); e != nil { // a WAL tail for recovery to replay
		return nil, e
	}
	want := plain.Frames()
	if e := jsess.Close(nil); e != nil {
		return nil, e
	}
	for i := 0; i < 3; i++ {
		mgr, e := journal.OpenManager(journal.Config{Dir: walDir, SnapshotFrames: -1})
		if e != nil {
			return nil, e
		}
		rp.call("journal.recover", -1, uint64(i+1), 1, func() {
			recovered, e := mgr.Recover(storeCfg)
			if e == nil && (len(recovered) != 1 || recovered[0].Store.Frames() != want) {
				e = fmt.Errorf("bench: replay recovery rebuilt %d sessions, want 1 of %d frames", len(recovered), want)
			}
			fail(e)
		})
	}
	if err != nil {
		return nil, err
	}

	// --- seal one-offs ---------------------------------------------------
	var tracked *core.LiveStore
	for i := 0; i < 3; i++ {
		if tracked, err = newStore(); err != nil {
			return nil, err
		}
		for k := 0; k < livePreload; k += ingestBatch {
			frames = m.fill(frames, k, ingestBatch)
			tracked.AppendFrames(frames)
		}
		rp.call("core.seal_cold", -1, uint64(i+1), 1, func() {
			_, e := tracked.Seal()
			fail(e)
		})
	}
	cube := make([]float64, 32*256*64)
	for i := range cube {
		cube[i] = float64(rng.Intn(4))
	}
	f, err := wavelet.ForDegree(2)
	if err != nil {
		return nil, err
	}
	for i := 0; i < 3; i++ {
		data := append([]float64(nil), cube...)
		rp.call("wavelet.transform_nd", -1, uint64(i+1), 1, func() {
			wavelet.TransformND(data, wavelet.Dims{32, 256, 64}, []wavelet.Filter{f, f, f})
		})
	}

	// --- query pipeline: a 128-frame append, then what each query kind
	// passes through on the store that append just dirtied ---------------
	span := float64(m.horizon) / m.rate
	fixed := fixedWindowSet(rng, m.width(), span)
	sent := livePreload
	frames = frames[:0]
	for i := 0; i < replayQueries; i++ {
		opID := uint64(i + 1)
		root := rp.tr.begin("replay.query", -1, opID)
		frames = m.fill(frames, sent, liveBatch)
		sent += liveBatch
		rp.call("core.append_tracked", root, opID, 1, func() {
			_, e := tracked.AppendFrames(frames)
			fail(e)
		})
		w := fixed[i%len(fixed)]
		encoded := w.query(wire.QueryApproxCount).Encode()
		rp.call("wire.decode_query", root, opID, microReps, func() {
			for r := 0; r < microReps; r++ {
				_, e := wire.DecodeQuery(encoded)
				fail(e)
			}
		})
		var sealed *core.Store
		rp.call("core.seal_incr", root, opID, 1, func() {
			var e error
			sealed, e = tracked.Seal()
			fail(e)
		})
		if err != nil {
			return nil, err
		}
		// The time range as the store's box: channel, bucket span, all bins.
		lo, hi := m.bucketRange(w.t0, w.t1)
		// A geometry no earlier op used, so the plan truly compiles.
		fresh := propolyne.Query{Lo: []int{i % m.width(), i, 0}, Hi: []int{i % m.width(), i + 1 + i%7, valueBins - 1}}
		rp.call("propolyne.plan_compile", root, opID, 1, func() {
			_, e := sealed.Engine.CompilePlan(fresh)
			fail(e)
		})
		pq := propolyne.Query{Lo: []int{int(w.channel), lo, 0}, Hi: []int{int(w.channel), hi, valueBins - 1}}
		if _, e := propolyne.SharedCache.Lookup(sealed.Engine, pq); e != nil {
			return nil, e
		}
		rp.call("propolyne.plan_lookup_hit", root, opID, microReps, func() {
			for r := 0; r < microReps; r++ {
				_, e := propolyne.SharedCache.Lookup(sealed.Engine, pq)
				fail(e)
			}
		})
		rp.call("propolyne.dot", root, opID, microReps, func() {
			for r := 0; r < microReps; r++ {
				_, _, e := sealed.ApproximateCount(int(w.channel), w.t0, w.t1, approxBudget)
				fail(e)
			}
		})
		rp.call("propolyne.progressive", root, opID, 1, func() {
			_, _, e := sealed.Engine.Progressive(pq, progSteps)
			fail(e)
		})
		rp.call("core.exact_scan", root, opID, microReps, func() {
			for r := 0; r < microReps; r++ {
				_, e := tracked.CountSamples(int(w.channel), w.t0, w.t1)
				fail(e)
			}
		})
		res := wire.Result{Kind: wire.QueryApproxCount, Final: true, OK: true, Value: 1, Bound: 1}
		rp.call("wire.encode_result", root, opID, microReps, func() {
			for r := 0; r < microReps; r++ {
				res.Encode()
			}
		})
		rp.call("transport.tcp_rtt_query", root, opID, 1, func() { fail(tcp.roundTrip(wire.MsgQuery, encoded)) })
		rp.tr.end(root)
		if err != nil {
			return nil, err
		}
	}

	// --- fleet pipeline: match, scatter, merge over 96 static stores -----
	models := fleetModels(cfg.seed)
	var sessions []fleet.Session
	for i, fm := range models {
		// All the gloves, and as many trackers as are worth sealing cold.
		if fm.class == "tracker" && i >= fleetGloves+fleetRecordings {
			continue
		}
		ls, e := core.NewLiveStore(fm.rec.mins, fm.rec.maxs, core.LiveStoreConfig{Rate: fm.rate, HorizonTicks: fm.horizon})
		if e != nil {
			return nil, e
		}
		for k := 0; k < fleetFrames; k += ingestBatch {
			frames = fm.fill(frames, k, ingestBatch)
			ls.AppendFrames(frames)
		}
		if fm.class == "tracker" {
			if _, e := ls.Seal(); e != nil {
				return nil, e
			}
		}
		sessions = append(sessions, fleet.Session{ID: uint64(i + 1), Class: fm.class, Store: ls})
	}
	fspan := float64(fleetFrames) / sensors.DefaultClock
	gloveWindows := fixedWindowSet(rng, models[0].width(), fspan)
	trackerWindows := fixedWindowSet(rng, trackerChannels, fspan)
	for i := 0; i < replayFleet; i++ {
		opID := uint64(i + 1)
		gw, tw := gloveWindows[i%len(gloveWindows)], trackerWindows[i%len(trackerWindows)]
		exact := fleet.Request{
			Kind: exactKinds[i%len(exactKinds)], Channel: int(gw.channel), T0: gw.t0, T1: gw.t1,
			Scope: wire.FleetScope{Class: "cyberglove"},
		}
		approx := fleet.Request{
			Kind: wire.QueryApproxCount, Channel: int(tw.channel), T0: tw.t0, T1: tw.t1, Arg: approxBudget,
			Scope: wire.FleetScope{Class: "tracker"},
		}
		root := rp.tr.begin("replay.fleet", -1, opID)
		var matched []fleet.Session
		rp.call("fleet.match", root, opID, 1, func() { matched, _ = fleet.Match(sessions, exact.Scope) })
		parts := make([]wire.FleetPart, 0, len(matched))
		for _, s := range matched {
			rp.call("fleet.eval_session_exact", root, opID, 1, func() {
				p, e := fleet.EvalSession(s, exact)
				parts = append(parts, p)
				fail(e)
			})
		}
		rp.call("fleet.merge", root, opID, microReps, func() {
			for r := 0; r < microReps; r++ {
				fleet.Merge(exact.Kind, parts)
			}
		})
		rp.tr.end(root)
		rp.call("fleet.evaluate", -1, opID, 1, func() {
			fr := fleet.Evaluate(context.Background(), sessions, exact, fleet.Config{})
			if !fr.OK && fr.Code != wire.CodeOK {
				fail(fmt.Errorf("bench: replayed fleet query failed: %s", fr.Code))
			}
		})
		trackers, _ := fleet.Match(sessions, approx.Scope)
		for _, s := range trackers {
			rp.call("fleet.eval_session_approx", -1, opID, 1, func() {
				_, e := fleet.EvalSession(s, approx)
				fail(e)
			})
		}
		if err != nil {
			return nil, err
		}
	}
	return &replayResult{
		stats:         rp.stats(),
		bytesPerFrame: float64(wire.MessageSize(len(payload))) / float64(batch),
		spans:         rp.tr.spans,
	}, nil
}

// bucketRange is the inclusive time-bucket span a [t0,t1] query covers.
func (m *sessionModel) bucketRange(t0, t1 float64) (lo, hi int) {
	tpb := m.ticksPerBucket()
	from, to := m.tickRange(t0, t1, m.horizon)
	return from / tpb, (to - 1) / tpb
}
