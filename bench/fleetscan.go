package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"aims/internal/fleet"
	"aims/internal/sensors"
	"aims/internal/wire"
)

const (
	fleetGloves   = 96
	fleetTrackers = 32
	fleetFrames   = 2048
	// fleetRecordings is how many distinct recordings of each class the
	// sessions share; each session replays one from its own offset.
	fleetRecordings = 8
	// heartbeat is how often each idle device pings: the server's default
	// -heartbeat, without which -idle would evict the fleet mid-window.
	heartbeat = 5 * time.Second
)

// fleetEnv is one set-up fleet_scan workload: 128 registered, preloaded,
// idle sessions — state, not load — and the console that queries them. The
// idle clients stay referenced here so no finalizer closes them.
type fleetEnv struct {
	srv     *serverProc
	idle    []*wire.Client
	console *wire.Client
}

func (e *fleetEnv) discard() {
	for _, c := range e.idle {
		c.Abort()
	}
	if e.console != nil {
		e.console.Abort()
	}
	e.srv.kill()
}

// fleetModels builds the fleet's reference: 96 cyberglove sessions and 32
// tracker sessions of 2 048 frames each.
func fleetModels(seed int64) []*sessionModel {
	gloves := make([]*recording, fleetRecordings)
	trackers := make([]*recording, fleetRecordings)
	for i := range gloves {
		gloves[i] = gloveRecording(seed*1000 + int64(i))
		trackers[i] = trackerRecording(seed*1000 + 500 + int64(i))
	}
	models := make([]*sessionModel, 0, fleetGloves+fleetTrackers)
	for i := 0; i < fleetGloves+fleetTrackers; i++ {
		m := &sessionModel{
			rate: sensors.DefaultClock, horizon: fleetFrames,
			offset: (i / fleetRecordings) * 257,
		}
		if i < fleetGloves {
			m.name, m.class, m.rec = fmt.Sprintf("glove-%d", i), "cyberglove", gloves[i%fleetRecordings]
		} else {
			m.name, m.class, m.rec = fmt.Sprintf("tracker-%d", i), "tracker", trackers[i%fleetRecordings]
		}
		models = append(models, m)
	}
	return models
}

// runFleetScan is the fleet_scan workload: one console asks 25 fleet
// queries a second, open loop, over 128 connected but idle sessions.
func runFleetScan(cfg runConfig, res *runResult) error {
	total := cfg.warmup + cfg.window
	rng := rand.New(rand.NewSource(cfg.seed))
	models := fleetModels(cfg.seed)
	span := float64(fleetFrames) / sensors.DefaultClock
	gloveWindows := fixedWindowSet(rng, models[0].width(), span)
	trackerWindows := fixedWindowSet(rng, trackerChannels, span)
	timeline := fleetSchedule(rng, gloveWindows, trackerWindows, len(models), total)
	res.inputHash = scheduleHash(timeline)

	env, setupS, err := repeatSetup(cfg.setups, func(int) (*fleetEnv, error) {
		srv, err := startServer(cfg.serverBin, "")
		if err != nil {
			return nil, err
		}
		e := &fleetEnv{srv: srv}
		for _, m := range models {
			m.sent = 0
			c, err := wire.Dial(srv.addr)
			if err != nil {
				e.discard()
				return nil, err
			}
			e.idle = append(e.idle, c)
			c.Window = ingestWindow
			c.Timeout = 30 * time.Second
			w, err := c.Hello(m.hello())
			if err == nil {
				m.id = w.SessionID
				err = preload(c, m, fleetFrames, ingestBatch)
			}
			if err != nil {
				e.discard()
				return nil, err
			}
		}
		if e.console, err = wire.Dial(srv.addr); err != nil {
			e.discard()
			return nil, err
		}
		e.console.Timeout = 30 * time.Second
		_, err = e.console.Hello(wire.Hello{Rate: 1, HorizonTicks: 1, Name: "console", Class: "console", Mins: []float64{0}, Maxs: []float64{1}})
		if err == nil {
			// Ready means the first approximate fan-out has been answered:
			// it seals every tracker store cold, and the stores never change
			// again, so no query in the window pays for a seal.
			warm := wire.FleetQuery{Query: trackerWindows[0].query(wire.QueryApproxCount), Scope: wire.FleetScope{Class: "tracker"}}
			var fr wire.FleetResult
			if fr, err = e.console.FleetQuery(warm); err == nil && !fr.OK {
				err = fmt.Errorf("warm fleet query failed: %s", fr.Code)
			}
		}
		if err != nil {
			e.discard()
			return nil, err
		}
		return e, nil
	}, (*fleetEnv).discard)
	if err != nil {
		return err
	}
	defer env.discard()
	res.set("setup_s", setupS)

	// Idle devices heartbeat; one goroutine pings them in turn, so together
	// with the console at most two connections are ever active.
	stopPings := make(chan struct{})
	var pingWG sync.WaitGroup
	pingWG.Add(1)
	pingFailed := 0
	go func() {
		defer pingWG.Done()
		tick := time.NewTicker(heartbeat / time.Duration(len(env.idle)))
		defer tick.Stop()
		for i := 0; ; i++ {
			select {
			case <-stopPings:
				return
			case <-tick.C:
				if env.idle[i%len(env.idle)].Ping() != nil {
					pingFailed++
				}
			}
		}
	}()

	// A quiet window before the first query prices an idle connected device.
	quietBegin, err := takeSample(env.srv, false)
	if err != nil {
		return err
	}
	time.Sleep(cfg.quiet)
	quietEnd, err := takeSample(env.srv, false)
	if err != nil {
		return err
	}
	if cfg.quiet > 0 {
		idleMS := float64(quietEnd.serverCPU-quietBegin.serverCPU) / float64(time.Millisecond)
		res.set("server.idle_cpu_ms_per_session_s", idleMS/quietEnd.at.Sub(quietBegin.at).Seconds()/float64(len(models)))
	}

	start := time.Now().Add(50 * time.Millisecond)
	var recs []opRecord
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		recs = runTimeline(start, timeline, cfg.warmup, func(k int, o op, sent time.Time) {
			err := fleetOp(env.console, models, o)
			if o.due >= cfg.warmup {
				res.checks.verify(o.kind.String(), err)
				res.tr.add("client."+o.kind.String(), -1, uint64(k+1), sent, time.Now())
			} else if err != nil {
				res.checks.verify("warm-up "+o.kind.String(), err)
			}
		})
	}()
	edges, err := sampleEdges(env.srv, start.Add(cfg.warmup), cfg.window, windowSlices+1, cfg.traced)
	if err != nil {
		return err
	}
	wg.Wait()
	close(stopPings)
	pingWG.Wait()
	res.checks.add(0, pingFailed)

	lat := byKind(recs, cfg.warmup, cfg.window)
	if err := res.windowStats(env.srv, edges, lat); err != nil {
		return err
	}
	res.openLoopStats(recs)
	res.set("throughput_per_s", res.values["ops_per_s"])
	res.setSliced("op_ms_p50", lat[opFleetExact], 0.50)
	res.setSliced("client.op_ms_p95", lat[opFleetExact], 0.95)
	res.setSliced("client.fleet_exact_ms_p50", lat[opFleetExact], 0.50)
	res.setSliced("client.fleet_approx_ms_p50", lat[opFleetApprox], 0.50)
	var all latencies
	for _, l := range lat {
		all = append(all, flat(l)...)
	}
	res.setN("client.fleet_ms_p95", all.ms(0.95), len(all))
	res.setN("client.fleet_ms_p99", all.ms(0.99), len(all))
	if cfg.traced {
		res.scrapeStats(scrapeDelta(edges[0].scrape, edges[windowSlices].scrape), 0)
	}

	// Verification: a fleet answer equals the client-side merge of the
	// answers each session gives on its own connection.
	for i := 0; i < 4; i++ {
		w := trackerWindows[rng.Intn(len(trackerWindows))]
		kind := []wire.QueryKind{wire.QueryCount, wire.QueryAverage}[i%2]
		res.checks.verify("client-side merge", verifyClientMerge(env, models, w.query(kind)))
	}
	return nil
}

// fleetScope names the sessions an op spans.
func fleetScope(models []*sessionModel, o op) (wire.FleetScope, []*sessionModel) {
	var scope wire.FleetScope
	var in []*sessionModel
	switch o.kind {
	case opFleetExact:
		scope.Class = "cyberglove"
	case opFleetApprox:
		scope.Class = "tracker"
	default:
		for _, i := range o.ids {
			scope.IDs = append(scope.IDs, models[i].id)
			in = append(in, models[i])
		}
		return scope, in
	}
	for _, m := range models {
		if m.class == scope.Class {
			in = append(in, m)
		}
	}
	return scope, in
}

// fleetOp issues one fleet query and checks it: every scoped session
// answered, the merged value matches the reference built from the frames
// sent, and re-merging the per-session parts reproduces it bit for bit.
func fleetOp(c *wire.Client, models []*sessionModel, o op) error {
	scope, in := fleetScope(models, o)
	fr, err := c.FleetQuery(wire.FleetQuery{Query: o.query, Scope: scope})
	if err != nil {
		return err
	}
	if fr.Code != wire.CodeOK || int(fr.Sessions) != len(in) || int(fr.Merged) != len(in) {
		return fmt.Errorf("fleet answered %s over %d/%d sessions, want %d", fr.Code, fr.Merged, fr.Sessions, len(in))
	}
	var cnt, sum, sumSq, step float64
	for _, m := range in {
		n, s, s2 := m.moments(int(o.query.Channel), o.query.T0, o.query.T1, m.sent)
		cnt, sum, sumSq = cnt+n, sum+s, sumSq+s2
		step = math.Max(step, m.step(int(o.query.Channel)))
	}
	if o.query.Kind == wire.QueryApproxCount {
		err = checkEstimate(fr.Value, fr.Bound, cnt)
	} else {
		err = checkMoments(o.query.Kind, fr.Value, fr.OK, cnt, sum, sumSq, step)
	}
	if err != nil {
		return err
	}
	value, bound, _, ok := fleet.Merge(o.query.Kind, fr.Parts)
	if len(fr.Parts) != len(in) || ok != fr.OK || value != fr.Value || bound != fr.Bound {
		return fmt.Errorf("re-merging %d parts gives %v±%v, fleet answered %v±%v", len(fr.Parts), value, bound, fr.Value, fr.Bound)
	}
	return nil
}

// verifyClientMerge asks every tracker session the query on its own
// connection and merges the answers client-side; the fleet answer over the
// class must agree — COUNT exactly, AVERAGE to rounding.
func verifyClientMerge(env *fleetEnv, models []*sessionModel, q wire.Query) error {
	fr, err := env.console.FleetQuery(wire.FleetQuery{Query: q, Scope: wire.FleetScope{Class: "tracker"}})
	if err != nil {
		return err
	}
	var n, weighted float64
	for i, m := range models {
		if m.class != "tracker" {
			continue
		}
		cq := q
		cq.Kind = wire.QueryCount
		cnt, err := env.idle[i].Query(cq)
		if err != nil {
			return err
		}
		n += cnt.Value
		if q.Kind == wire.QueryAverage && cnt.Value > 0 {
			avg, err := env.idle[i].Query(q)
			if err != nil {
				return err
			}
			weighted += avg.Value * cnt.Value
		}
	}
	want := n
	if q.Kind == wire.QueryAverage {
		if n == 0 {
			return nil
		}
		want = weighted / n
	}
	if math.Abs(fr.Value-want) > 1e-9*(1+math.Abs(want)) {
		return fmt.Errorf("fleet kind %d answered %v, client-side merge %v", q.Kind, fr.Value, want)
	}
	return nil
}
