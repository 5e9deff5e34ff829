// Command aims-query builds an immersidata store from a simulated session
// and answers range-aggregate queries against it — the off-line query tier
// of AIMS (§3.3) as a CLI.
//
//	aims-query -seconds 60 -channel 5 -from 10 -to 30 -agg variance
//	aims-query -channel 3 -agg count -approx 200
//	aims-query -agg count -repeat 100        # cold/p50/p99 latency (plan-cache warm-up)
//
// With -addr it instead queries a live aims-server fleet: one aggregate
// over every session of a device class (or an explicit session-ID list),
// merged server-side.
//
//	aims-query -addr host:7009 -fleet cyberglove -agg count -from 1 -to 9
//	aims-query -addr host:7009 -fleet 3,17,42 -agg average -partial
//
// In fleet mode, -trace force-samples the query end-to-end: the client
// mints a trace ID, carries it in the wire payload, and prints it; with
// -trace-admin pointing at the server's admin plane the console fetches
// the finished trace from /tracez?id= and prints the span tree
// (per-session scan or seal, plan compile/hit and dot product, then the
// merge) with self-times.
//
//	aims-query -addr host:7009 -fleet cyberglove -agg count \
//	    -trace -trace-admin http://host:6060
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"
	"time"

	"aims/internal/core"
	"aims/internal/propolyne"
	"aims/internal/sensors"
	"aims/internal/stream"
)

func main() {
	seconds := flag.Float64("seconds", 60, "session length to simulate")
	channel := flag.Int("channel", 5, "sensor channel to query")
	from := flag.Float64("from", 0, "range start (seconds)")
	to := flag.Float64("to", -1, "range end (seconds, -1 = session end)")
	agg := flag.String("agg", "average", "aggregate: count | average | variance")
	approx := flag.Int("approx", 0, "if > 0, answer approximately with this coefficient budget")
	seed := flag.Int64("seed", 1, "simulation seed")
	saveTo := flag.String("save", "", "after building, persist the store to this file")
	loadFrom := flag.String("load", "", "query a previously saved store instead of simulating")
	explain := flag.Bool("explain", false, "print the evaluation plan before answering")
	repeat := flag.Int("repeat", 1, "evaluate the query N times and report cold/p50/p99 latency")
	addr := flag.String("addr", "", "live aims-server address: fleet query mode (needs -fleet)")
	fleetScope := flag.String("fleet", "", "fleet scope: device class or comma-separated session IDs")
	partial := flag.Bool("partial", false, "fleet mode: accept partial results (still exits non-zero)")
	fleetTimeout := flag.Duration("timeout", 0, "fleet mode: per-query deadline (0 = server default)")
	trace := flag.Bool("trace", false, "fleet mode: force-sample this query and print its trace ID")
	traceAdmin := flag.String("trace-admin", "", "fleet mode: admin plane base URL; with -trace, fetch and print the span tree")
	transportF := flag.String("transport", "tcp", "fleet mode: dial transport for -addr: tcp|ws (a URL scheme in -addr wins)")
	flag.Parse()

	if *to < 0 {
		*to = *seconds
	}
	if *addr != "" || *fleetScope != "" {
		if *addr == "" || *fleetScope == "" {
			fmt.Fprintln(os.Stderr, "fleet mode needs both -addr and -fleet")
			os.Exit(2)
		}
		if *transportF != "tcp" && *transportF != "ws" {
			fmt.Fprintln(os.Stderr, "-transport must be tcp or ws")
			os.Exit(2)
		}
		target := *addr
		if !strings.Contains(target, "://") && *transportF != "tcp" {
			target = *transportF + "://" + target
		}
		os.Exit(runFleet(target, *fleetScope, *agg, *approx, *channel, *from, *to, *partial, *fleetTimeout, *trace, *traceAdmin))
	}
	var st *core.Store
	if *loadFrom != "" {
		var err error
		st, err = core.LoadStore(*loadFrom)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("loaded store %s: %d channels × %d time buckets × %d value bins\n",
			*loadFrom, st.Channels, st.TimeBuckets, st.ValueBins)
	} else {
		ticks := int(*seconds * sensors.DefaultClock)
		sys := core.New(core.Config{})
		dev := sensors.NewDevice(sensors.GloveSpecs(), sensors.DefaultClock, 1, *seed)
		frames, stats := sys.Acquire(&stream.FuncSource{Rate: sensors.DefaultClock, N: ticks, Fn: dev.Frame})
		fmt.Printf("acquired %d frames; building wavelet store...\n", stats.Stored)
		var err error
		st, err = sys.BuildStore(frames)
		if err != nil {
			log.Fatal(err)
		}
		if *saveTo != "" {
			if err := st.Save(*saveTo); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("persisted store to %s\n", *saveTo)
		}
	}

	if *explain {
		lo := int(*from * st.Rate / float64(st.TicksPerBucket))
		hi := int(*to * st.Rate / float64(st.TicksPerBucket))
		if hi >= st.TimeBuckets {
			hi = st.TimeBuckets - 1
		}
		ex, err := st.Engine.ExplainQuery(propolyne.Query{
			Lo: []int{*channel, lo, 0},
			Hi: []int{*channel, hi, st.ValueBins - 1},
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("plan:", ex)
	}

	// answer evaluates the query once; -repeat re-runs it to expose the
	// plan-cache warm-up (iteration 1 compiles, the rest hit the cache).
	var answer func() (string, error)
	switch *agg {
	case "count":
		if *approx > 0 {
			answer = func() (string, error) {
				est, bound, err := st.ApproximateCount(*channel, *from, *to, *approx)
				if err != nil {
					return "", err
				}
				return fmt.Sprintf("COUNT(ch=%d, [%.1fs,%.1fs]) ≈ %.1f (±%.2f guaranteed, %d coefficients)",
					*channel, *from, *to, est, bound, *approx), nil
			}
			break
		}
		answer = func() (string, error) {
			v, err := st.CountSamples(*channel, *from, *to)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("COUNT(ch=%d, [%.1fs,%.1fs]) = %.0f", *channel, *from, *to, v), nil
		}
	case "average", "variance":
		moment := st.AverageValue
		if *agg == "variance" {
			moment = st.VarianceValue
		}
		answer = func() (string, error) {
			v, ok, err := moment(*channel, *from, *to)
			if err != nil || !ok {
				return "", fmt.Errorf("%s: ok=%v err=%v", *agg, ok, err)
			}
			return fmt.Sprintf("%s(ch=%d, [%.1fs,%.1fs]) = %.3f", strings.ToUpper(*agg), *channel, *from, *to, v), nil
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown aggregate %q\n", *agg)
		os.Exit(2)
	}

	n := max(*repeat, 1)
	lat := make([]time.Duration, 0, n)
	var out string
	for i := 0; i < n; i++ {
		t0 := time.Now()
		s, err := answer()
		lat = append(lat, time.Since(t0))
		if err != nil {
			log.Fatal(err)
		}
		out = s
	}
	fmt.Println(out)
	if n > 1 {
		cold := lat[0]
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		p50 := lat[n/2]
		p99 := lat[(n*99)/100]
		fmt.Printf("latency over %d runs: cold=%s p50=%s p99=%s\n",
			n, cold, p50, p99)
	}
}
