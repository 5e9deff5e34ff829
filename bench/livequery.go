package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"aims/internal/stream"
	"aims/internal/wire"
)

const (
	liveSessions = 2
	livePreload  = 16384
	liveBatch    = 128
	// liveRate is the device clock the sessions register: 50 batches of 128
	// frames a second, so device time and schedule time advance together.
	liveRate = 50 * liveBatch
)

// liveEnv is one set-up live_query workload.
type liveEnv struct {
	srv     *serverProc
	clients []*wire.Client
}

func (e *liveEnv) discard() {
	for _, c := range e.clients {
		c.Abort()
	}
	e.srv.kill()
}

// liveHorizon sizes the sessions' time axis to the run: the preload plus
// everything the schedule will send, rounded up to a power of two so a
// time bucket is a whole number of batches.
func liveHorizon(total time.Duration) int {
	need := livePreload + int(total.Seconds()+1)*liveRate
	h := 1
	for h < need {
		h <<= 1
	}
	return h
}

// preload streams n frames into a fresh session and waits until they are
// stored.
func preload(c *wire.Client, m *sessionModel, n, batch int) error {
	buf := make([]stream.Frame, 0, batch)
	for m.sent < n {
		k := batch
		if n-m.sent < k {
			k = n - m.sent
		}
		if err := c.SendBatch(m.fill(buf, m.sent, k)); err != nil {
			return err
		}
		m.sent += k
	}
	stored, err := c.Flush()
	if err == nil && stored != uint64(m.sent) {
		err = fmt.Errorf("session %s: preload stored %d, sent %d", m.name, stored, m.sent)
	}
	return err
}

// runLiveQuery is the live_query workload: two glove sessions, each
// appending 50 batches a second while answering 20 exact, 20 approximate
// and 10 progressive queries a second on the same connection, open loop.
func runLiveQuery(cfg runConfig, res *runResult) error {
	total := cfg.warmup + cfg.window
	horizon := liveHorizon(total)
	rng := rand.New(rand.NewSource(cfg.seed))
	models := make([]*sessionModel, liveSessions)
	timelines := make([][]op, liveSessions)
	span := float64(horizon) / liveRate
	for i := range models {
		models[i] = &sessionModel{
			name: fmt.Sprintf("live-%d", i), class: "cyberglove",
			rate: liveRate, horizon: horizon, rec: gloveRecording(cfg.seed*1000 + int64(i)),
		}
		fixed := fixedWindowSet(rng, models[i].width(), span)
		// Sessions are offset by half a slot so their device clocks interleave.
		phase := time.Duration(i) * 5 * time.Millisecond
		timelines[i] = liveQuerySchedule(rng, models[i].width(), fixed, phase, total, float64(livePreload)/liveRate)
	}
	res.inputHash = scheduleHash(timelines...)

	env, setupS, err := repeatSetup(cfg.setups, func(int) (*liveEnv, error) {
		srv, err := startServer(cfg.serverBin, "")
		if err != nil {
			return nil, err
		}
		e := &liveEnv{srv: srv}
		for _, m := range models {
			m.sent = 0
			c, err := wire.Dial(srv.addr)
			if err != nil {
				e.discard()
				return nil, err
			}
			e.clients = append(e.clients, c)
			c.Window = ingestWindow
			c.Timeout = 30 * time.Second
			w, err := c.Hello(m.hello())
			if err == nil {
				m.id = w.SessionID
				err = preload(c, m, livePreload, ingestBatch)
			}
			if err == nil {
				// Ready means the first approximate answer has been served:
				// the cold seal of the preloaded cube is set-up, not window.
				_, err = c.Query(window{t1: span}.query(wire.QueryApproxCount))
			}
			if err != nil {
				e.discard()
				return nil, err
			}
			c.Window = 1
		}
		return e, nil
	}, (*liveEnv).discard)
	if err != nil {
		return err
	}
	defer env.discard()
	res.set("setup_s", setupS)

	start := time.Now().Add(50 * time.Millisecond)
	recs := make([][]opRecord, liveSessions)
	var wg sync.WaitGroup
	for i := range env.clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, m := env.clients[i], models[i]
			buf := make([]stream.Frame, 0, liveBatch)
			recs[i] = runTimeline(start, timelines[i], cfg.warmup, func(k int, o op, sent time.Time) {
				err := liveOp(c, m, o, buf)
				if o.due >= cfg.warmup {
					res.checks.verify(m.name+" "+o.kind.String(), err)
					res.tr.add("client."+o.kind.String(), -1, uint64(i+1)<<40|uint64(k), sent, time.Now())
				} else if err != nil {
					res.checks.verify(m.name+" warm-up "+o.kind.String(), err)
				}
			})
		}(i)
	}
	// The coordinator samples the server at the slice edges while the
	// timelines run.
	edges, err := sampleEdges(env.srv, start.Add(cfg.warmup), cfg.window, windowSlices+1, cfg.traced)
	if err != nil {
		return err
	}
	wg.Wait()

	var all []opRecord
	for _, r := range recs {
		all = append(all, r...)
	}
	lat := byKind(all, cfg.warmup, cfg.window)
	if err := res.windowStats(env.srv, edges, lat); err != nil {
		return err
	}
	res.openLoopStats(all)
	res.set("throughput_per_s", res.values["ops_per_s"])
	res.setSliced("op_ms_p50", lat[opApprox], 0.50)
	res.setSliced("client.op_ms_p95", lat[opApprox], 0.95)
	res.setSliced("client.query_approx_ms_p50", lat[opApprox], 0.50)
	res.setSliced("client.query_approx_ms_p95", lat[opApprox], 0.95)
	approx := flat(lat[opApprox])
	res.setN("client.query_approx_ms_p99", approx.ms(0.99), len(approx))
	res.setSliced("client.ingest_visible_ms_p50", lat[opIngest], 0.50)
	res.setSliced("client.ingest_visible_ms_p95", lat[opIngest], 0.95)
	res.setSliced("client.query_exact_ms_p50", lat[opExact], 0.50)
	res.setSliced("client.query_prog_ms_p50", lat[opProg], 0.50)
	if cfg.traced {
		frames := float64(res.opMix[opIngest] * liveBatch)
		res.scrapeStats(scrapeDelta(edges[0].scrape, edges[windowSlices].scrape), frames*float64(models[0].width())*8)
	}

	for i, c := range env.clients {
		m := models[i]
		for _, q := range verificationQueries(rng, m) {
			r, err := c.Query(q)
			if err == nil {
				err = m.checkResult(q, []wire.Result{r}, m.sent)
			}
			res.checks.verify(fmt.Sprintf("%s verify kind %d", m.name, q.Kind), err)
		}
		ack, err := c.Close()
		if err == nil && ack.Stored != uint64(m.sent) {
			err = fmt.Errorf("close ack stored %d, sent %d", ack.Stored, m.sent)
		}
		res.checks.verify(m.name+" close", err)
	}
	return nil
}

// liveOp executes one live_query op and checks its answer against the
// session's reference. Ops of a session are serial and every ingest op ends
// in a Flush, so at any query the store holds exactly m.sent frames.
func liveOp(c *wire.Client, m *sessionModel, o op, buf []stream.Frame) error {
	switch o.kind {
	case opIngest:
		if err := c.SendBatch(m.fill(buf, m.sent, liveBatch)); err != nil {
			return err
		}
		m.sent += liveBatch
		stored, err := c.Flush()
		if err == nil && stored != uint64(m.sent) {
			err = fmt.Errorf("flush confirmed %d frames, sent %d", stored, m.sent)
		}
		if err == nil && (c.ShedBatches() != 0 || c.DupBatches() != 0) {
			err = fmt.Errorf("batch refused: %d shed, %d duplicate", c.ShedBatches(), c.DupBatches())
		}
		return err
	case opProg:
		steps, err := c.QueryProgressive(o.query)
		if err != nil {
			return err
		}
		return m.checkResult(o.query, steps, m.sent)
	default:
		r, err := c.Query(o.query)
		if err != nil {
			return err
		}
		return m.checkResult(o.query, []wire.Result{r}, m.sent)
	}
}
