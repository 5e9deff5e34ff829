// Command aims-server runs the AIMS middle tier: a concurrent server
// immersive client devices register with, stream frame batches to, and
// query while their session is live (the paper's Fig. 2 three-tier
// architecture, tier two). It speaks the wire protocol over plain TCP
// and/or WebSocket (browser-resident devices) — list endpoints with
// -listen (default tcp://:7009).
//
//	aims-server -listen tcp://:7009 -policy block -metrics 10s -admin :6060
//	aims-server -listen tcp://:7009,ws://:7010
//
// The -admin listener serves the observability plane: /metrics
// (Prometheus text), /healthz (readiness, reports draining), /sessions
// (per-session JSON), /fleet (device classes with live session counts),
// /tracez (slowest sampled pipeline traces, ?id= for one trace by its
// distributed trace ID), /slowlog (the always-on slow-query log; tune the
// threshold with -slow-query) and /debug/pprof. Stop the server with
// SIGINT/SIGTERM; shutdown drains every session's in-flight batches
// before exiting.
//
// Every tuning flag's -help shows its real default and has no negative
// "off" or "default" value: a negative one exits with status 2, as do
// -buckets and -bins that are not powers of two. With -data-dir set, every
// batch is fsynced to its session's WAL before it is stored, so a frame a
// Flush has acknowledged survives a crash.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"aims/internal/core"
	"aims/internal/journal"
	"aims/internal/obs"
	"aims/internal/propolyne"
	"aims/internal/server"
)

func main() {
	var (
		listen  = flag.String("listen", "tcp://:7009", "comma-separated listen endpoints, e.g. tcp://:7009,ws://:7010 — serve TCP and WebSocket devices side by side")
		queue   = flag.Int("queue", 8192, "per-session ingest queue depth (frames)")
		idle    = flag.Duration("idle", 30*time.Second, "idle-session eviction timeout")
		hbeat   = flag.Duration("heartbeat", 5*time.Second, "expected device heartbeat interval; pinging sessions are evicted after ~2.5 missed beats")
		wtmo    = flag.Duration("write-timeout", 10*time.Second, "per-message socket write deadline")
		retain  = flag.Duration("retain", time.Minute, "how long a named session is parked awaiting its device, its name reserved, after it left (dropped link, Close or takeover) or a restart found it on disk; a durable one is parked on disk, not in memory")
		policy  = flag.String("policy", "block", "backpressure policy: block|shed")
		buckets = flag.Int("buckets", 256, "live-store time buckets (power of two)")
		bins    = flag.Int("bins", 64, "live-store value bins (power of two)")
		metrics = flag.Duration("metrics", 10*time.Second, "metrics print interval (0 disables)")
		drain   = flag.Duration("drain", 10*time.Second, "graceful shutdown drain timeout")
		quiet   = flag.Bool("quiet", false, "suppress per-session logs")
		admin   = flag.String("admin", "", "admin plane listen address, e.g. :6060 (empty disables)")
		tsample = flag.Int("trace-sample", obs.DefaultTraceSample, "trace one in N batches/queries")
		slowQ   = flag.Duration("slow-query", obs.DefaultSlowQuery, "slow-query log threshold: any batch or query at least this slow is traced into /slowlog")

		fleetTimeout = flag.Duration("fleet-timeout", 5*time.Second, "default fleet query deadline")
		planCache    = flag.Int("plan-cache", propolyne.DefaultPlanCacheCost, "compiled query-plan cache budget in entry units")

		dataDir    = flag.String("data-dir", "", "durability directory: per-session WAL + snapshots (empty: memory-only)")
		segBytes   = flag.Int64("segment-bytes", 8<<20, "WAL segment rotation size (bytes)")
		snapEvery  = flag.Int("snapshot-frames", 65536, "snapshot a session every N frames (negative: only at close)")
		durability = flag.String("durability", "block", "on journal write failure: block|shed")
	)
	flag.Parse()
	// Each setting has one spelling: no negative "off" value.
	for _, name := range []string{"queue", "idle", "heartbeat", "write-timeout", "retain", "buckets", "bins",
		"trace-sample", "slow-query", "fleet-timeout", "plan-cache", "segment-bytes"} {
		if v := flag.Lookup(name).Value.String(); strings.HasPrefix(v, "-") {
			exitOn(fmt.Errorf("-%s %s: must not be negative", name, v), 2)
		}
	}
	// The live store checks its own dimensions; probe it once here so a bad
	// one fails at startup instead of refusing every device's Hello.
	for name, dims := range map[string]core.LiveStoreConfig{
		"buckets": {TimeBuckets: *buckets},
		"bins":    {ValueBins: *bins},
	} {
		if _, err := core.NewLiveStore([]float64{0}, []float64{1}, dims); err != nil {
			exitOn(fmt.Errorf("-%s: %v", name, err), 2)
		}
	}

	pol, err := server.ParsePolicy(*policy)
	exitOn(err, 2)
	dpol, err := journal.ParseDegradePolicy(*durability)
	exitOn(err, 2)
	logf := log.Printf
	if *quiet {
		logf = func(string, ...interface{}) {}
	}
	srv := server.New(server.Config{
		QueueFrames:   *queue,
		IdleTimeout:   *idle,
		Heartbeat:     *hbeat,
		WriteTimeout:  *wtmo,
		RetainTimeout: *retain,
		Policy:        pol,
		TraceSample:   *tsample,
		SlowQuery:     *slowQ,
		FleetTimeout:  *fleetTimeout,
		PlanCacheCost: *planCache,
		Store: core.LiveStoreConfig{
			TimeBuckets: *buckets,
			ValueBins:   *bins,
		},
		Journal: journal.Config{
			Dir:            *dataDir,
			SegmentBytes:   *segBytes,
			SnapshotFrames: *snapEvery,
			Degrade:        dpol,
		},
		Logf: logf,
	})

	if *dataDir != "" {
		n, err := srv.RecoverSessions()
		exitOn(err, 1)
		log.Printf("durability on: data-dir=%s recovered=%d sessions", *dataDir, n)
	}

	var bounds []string
	for _, ep := range strings.Split(*listen, ",") {
		ep = strings.TrimSpace(ep)
		if ep == "" {
			continue
		}
		bound, err := srv.Start(ep)
		exitOn(err, 1)
		bounds = append(bounds, bound.String())
	}
	if len(bounds) == 0 {
		fmt.Fprintln(os.Stderr, "no listen endpoints")
		os.Exit(1)
	}
	log.Printf("aims-server listening on %s (policy=%s queue=%d idle=%s)", strings.Join(bounds, " "), *policy, *queue, *idle)

	// The admin plane lives on its own listener so scrapes and profiles
	// never contend with the wire protocol, and stays up through the drain
	// so /healthz can report the draining state.
	var adminSrv *http.Server
	if *admin != "" {
		ln, err := net.Listen("tcp", *admin)
		exitOn(err, 1)
		adminSrv = &http.Server{Handler: srv.AdminHandler()}
		go func() {
			if err := adminSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
				log.Printf("admin: %v", err)
			}
		}()
		log.Printf("admin plane on http://%s (/metrics /healthz /sessions /fleet /tracez /slowlog /debug/pprof)", ln.Addr())
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)

	if *metrics > 0 {
		go func() {
			t := time.NewTicker(*metrics)
			defer t.Stop()
			for range t.C {
				log.Printf("metrics: %s", srv.Metrics())
			}
		}()
	}

	<-stop
	log.Printf("shutting down: draining sessions (timeout %s)", *drain)
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("shutdown: %v", err)
		os.Exit(1)
	}
	if adminSrv != nil {
		adminSrv.Close()
	}
	log.Printf("final metrics: %s", srv.Metrics())
}

// exitOn prints err and ends the process with code, if err is set.
func exitOn(err error, code int) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(code)
	}
}
