package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"aims/internal/sensors"
	"aims/internal/stream"
	"aims/internal/wire"
)

const (
	ingestBatch  = 256
	ingestWindow = 4
	// ingestHorizon is the registered session length in ticks: large enough
	// that a minute at saturation never reaches the clamping last bucket.
	ingestHorizon = 1 << 26
	// traceEvery thins client-side batch spans on the closed-loop
	// workloads, which send thousands of batches a second.
	traceEvery = 16
)

// ingestEnv is one set-up ingest workload: a server and its registered,
// idle devices.
type ingestEnv struct {
	srv  *serverProc
	devs []*device
	dir  string
}

func (e *ingestEnv) discard() {
	for _, d := range e.devs {
		d.conn.Close()
	}
	e.srv.kill()
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
}

// runIngest is ingest_mem and ingest_durable: nproc glove sessions push
// 256-frame batches closed loop, four unacknowledged at most, until the
// window ends. The two differ only in -data-dir, so their difference is
// the journal.
func runIngest(cfg runConfig, res *runResult, durable bool) error {
	sessions := runtime.NumCPU()
	models := make([]*sessionModel, sessions)
	recs := make([]*recording, sessions)
	for i := range models {
		recs[i] = gloveRecording(cfg.seed*1000 + int64(i))
		models[i] = &sessionModel{
			name: fmt.Sprintf("ingest-%d", i), class: "cyberglove",
			rate: sensors.DefaultClock, horizon: ingestHorizon, rec: recs[i],
		}
	}
	res.inputHash = hashRecording(recs...)

	env, setupS, err := repeatSetup(cfg.setups, func(i int) (*ingestEnv, error) {
		e := &ingestEnv{}
		var err error
		if durable {
			if e.dir, err = cfg.dataDir(fmt.Sprintf("wal-%d", i)); err != nil {
				return nil, err
			}
		}
		if e.srv, err = startServer(cfg.serverBin, e.dir); err != nil {
			return nil, err
		}
		for _, m := range models {
			d, w, err := dialDevice(e.srv.addr, m.hello(), ingestWindow)
			if err != nil {
				e.discard()
				return nil, err
			}
			m.id = w.SessionID
			e.devs = append(e.devs, d)
		}
		return e, nil
	}, (*ingestEnv).discard)
	if err != nil {
		return err
	}
	defer env.discard()
	res.set("setup_s", setupS)

	tr := res.tr

	// drive pushes batches on every device until the deadline, then drains
	// each with a Flush barrier, so the frames counted are confirmed stored.
	drive := func(until time.Time) error {
		errs := make([]error, sessions)
		var wg sync.WaitGroup
		for i := range env.devs {
			wg.Add(1)
			go func(d *device, m *sessionModel, errp *error) {
				defer wg.Done()
				buf := make([]stream.Frame, 0, ingestBatch)
				for n := 0; time.Now().Before(until); n++ {
					d.tr = nil
					if n%traceEvery == 0 {
						d.tr = tr
					}
					if err := d.send(m.fill(buf, m.sent, ingestBatch)); err != nil {
						*errp = err
						return
					}
					m.sent += ingestBatch
				}
				stored, err := d.flush()
				if err == nil && stored != uint64(m.sent) {
					err = fmt.Errorf("session %s: stored %d, sent %d", m.name, stored, m.sent)
				}
				*errp = err
			}(env.devs[i], models[i], &errs[i])
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}

	if err := drive(time.Now().Add(cfg.warmup)); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	sentBefore := 0
	for i, d := range env.devs {
		d.acks = d.acks[:0]
		d.opBase = uint64(i+1) << 40
		sentBefore += models[i].sent
	}
	start := time.Now()
	driven := make(chan error, 1)
	go func() { driven <- drive(start.Add(cfg.window)) }()
	edges, err := sampleEdges(env.srv, start, cfg.window, windowSlices, cfg.traced)
	driveErr := <-driven
	if err != nil {
		return err
	}
	// The last edge is taken once the closing Flush barriers have returned.
	end, err := takeSample(env.srv, cfg.traced)
	if err != nil {
		return err
	}
	edges = append(edges, end)
	// A drive error fails the op it hit; everything after it was not sent.
	res.checks.verify("ingest", driveErr)

	acks := make([]latencies, windowSlices)
	stored, refused := -sentBefore, 0
	for i, d := range env.devs {
		for _, a := range d.acks {
			k := sliceOf(edges, a.at)
			acks[k] = append(acks[k], a.latency)
		}
		refused += d.refused
		stored += models[i].sent
	}
	lat := map[opKind][]latencies{opIngest: acks}
	res.checks.add(stored/ingestBatch, refused)
	if err := res.windowStats(env.srv, edges, lat); err != nil {
		return err
	}
	fps := res.values["ops_per_s"] * ingestBatch
	res.set("throughput_per_s", fps)
	res.set("client.ingest_frames_per_s", fps)
	res.setSliced("op_ms_p50", acks, 0.50)
	res.setSliced("client.op_ms_p95", acks, 0.95)
	res.set("client.server_cpu_us_per_kframe", res.values["server_cpu_s"]*1e9/float64(stored))
	if cfg.traced {
		res.scrapeStats(scrapeDelta(edges[0].scrape, end.scrape), float64(stored)*float64(models[0].width())*8)
	}

	// Verification: the store answers exactly what the reference model of
	// the frames sent predicts.
	rng := rand.New(rand.NewSource(cfg.seed))
	for i, d := range env.devs {
		m := models[i]
		for _, q := range verificationQueries(rng, m) {
			steps, err := d.query(q)
			if err == nil {
				err = m.checkResult(q, steps, m.sent)
			}
			res.checks.verify(fmt.Sprintf("%s verify kind %d", m.name, q.Kind), err)
		}
	}

	if !durable {
		for i, d := range env.devs {
			ack, err := d.close()
			if err == nil && (ack.Stored != uint64(models[i].sent) || ack.Shed != 0) {
				err = fmt.Errorf("close ack stored %d shed %d, sent %d", ack.Stored, ack.Shed, models[i].sent)
			}
			res.checks.verify(models[i].name+" close", err)
		}
		return nil
	}

	// Crash and recover: SIGKILL after the Flush barrier, restart on the
	// same directory, resume every session by name; each must hold exactly
	// the frames its Flush confirmed.
	for _, d := range env.devs {
		d.conn.Close()
	}
	env.devs = nil
	env.srv.kill()
	srv, err := startServer(cfg.serverBin, env.dir)
	if err != nil {
		return fmt.Errorf("restart after kill -9: %w", err)
	}
	execAt := srv.execAt
	env.srv = srv
	for _, m := range models {
		res.checks.verify(m.name+" recover", verifyRecovered(srv.addr, m))
	}
	res.set("client.recover_s", time.Since(execAt).Seconds())
	return nil
}

// verificationQueries is the post-window check set of one session: COUNT
// over everything, then a few seeded exact-kind ranges.
func verificationQueries(rng *rand.Rand, m *sessionModel) []wire.Query {
	span := float64(m.sent) / m.rate
	qs := []wire.Query{{Kind: wire.QueryCount, T0: 0, T1: float64(m.horizon) / m.rate}}
	for i := 0; i < 6; i++ {
		t0 := rng.Float64() * span / 2
		qs = append(qs, wire.Query{
			Kind:    exactKinds[i%len(exactKinds)],
			Channel: uint16(rng.Intn(m.width())),
			T0:      t0, T1: t0 + rng.Float64()*span/2,
		})
	}
	return qs
}

// verifyRecovered re-registers a session by name on the restarted server:
// it must come back resumed and count exactly the flushed frames.
func verifyRecovered(addr string, m *sessionModel) error {
	c, err := wire.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Abort()
	c.Timeout = 30 * time.Second
	w, err := c.Hello(m.hello())
	if err != nil {
		return err
	}
	if w.Code != wire.CodeResumed {
		return fmt.Errorf("welcome %s, want resumed", w.Code)
	}
	q := wire.Query{Kind: wire.QueryCount, T0: 0, T1: float64(m.horizon) / m.rate}
	r, err := c.Query(q)
	if err != nil {
		return err
	}
	if r.Value != float64(m.sent) {
		return fmt.Errorf("recovered %v frames, flushed %d", r.Value, m.sent)
	}
	return nil
}
