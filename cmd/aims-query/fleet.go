package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"aims/internal/obs"
	"aims/internal/wire"
)

// parseFleetScope turns the -fleet argument into a wire scope: a
// comma-separated list where every token is a session ID selects those
// sessions explicitly; anything else names a device class.
func parseFleetScope(arg string) (wire.FleetScope, error) {
	if arg == "" {
		return wire.FleetScope{}, fmt.Errorf("-fleet needs a device class or id,id,... list")
	}
	tokens := strings.Split(arg, ",")
	ids := make([]uint64, 0, len(tokens))
	for _, tok := range tokens {
		id, err := strconv.ParseUint(strings.TrimSpace(tok), 10, 64)
		if err != nil {
			if len(tokens) > 1 {
				return wire.FleetScope{}, fmt.Errorf("-fleet %q: list entries must all be session IDs", arg)
			}
			return wire.FleetScope{Class: arg}, nil
		}
		ids = append(ids, id)
	}
	return wire.FleetScope{IDs: ids}, nil
}

// fleetKind maps the -agg/-approx spelling onto the wire query kind.
func fleetKind(agg string, approx int) (wire.QueryKind, uint32, error) {
	switch agg {
	case "count":
		if approx > 0 {
			return wire.QueryApproxCount, uint32(approx), nil
		}
		return wire.QueryCount, 0, nil
	case "average":
		return wire.QueryAverage, 0, nil
	case "variance":
		return wire.QueryVariance, 0, nil
	}
	return 0, 0, fmt.Errorf("unknown aggregate %q (fleet mode: count | average | variance)", agg)
}

// runFleet asks a live aims-server one cross-session fleet query and
// renders the merged answer. The protocol requires a registered session
// before any query, so the console registers a minimal one-channel
// session of class "console" that never streams a frame — anonymously, as
// it has nothing to resume: a name would park it on exit, and two consoles
// would take each other over. Returns the
// process exit code: non-zero on any server error code and on partial
// results, so scripts can trust a zero exit to mean every targeted
// session answered.
func runFleet(addr, scopeArg, agg string, approx int, channel int, from, to float64, partial bool, timeout time.Duration, trace bool, traceAdmin string) int {
	scope, err := parseFleetScope(scopeArg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	kind, arg, err := fleetKind(agg, approx)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	c, err := wire.Dial(addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer c.Abort()
	// Socket deadline: a half-open server must fail the console, not hang
	// it — the fleet deadline (plus slack for the merge) bounds every read.
	c.Timeout = 30 * time.Second
	if timeout > 0 {
		c.Timeout = timeout + 10*time.Second
	}
	if _, err := c.Hello(wire.Hello{
		Rate: 1, HorizonTicks: 1, Class: "console",
		Mins: []float64{-1}, Maxs: []float64{1},
	}); err != nil {
		fmt.Fprintf(os.Stderr, "register console session: %v\n", err)
		return 1
	}

	fq := wire.FleetQuery{
		Query:   wire.Query{Kind: kind, Channel: uint16(channel), T0: from, T1: to, Arg: arg},
		Scope:   scope,
		Partial: partial,
	}
	if timeout > 0 {
		fq.TimeoutMillis = uint32(timeout / time.Millisecond)
	}
	var traceID uint64
	if trace {
		// Mint the trace ID client-side and force-sample: the server keeps
		// the whole fan-out tree under OUR ID regardless of its sampler.
		traceID = wire.NewTraceID()
		fq.TraceID = traceID
		fq.TraceSampled = true
	}
	res, err := c.FleetQuery(fq)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if trace {
		fmt.Printf("trace %s\n", obs.TraceIDString(traceID))
	}

	name := strings.ToUpper(agg)
	fmt.Printf("FLEET %s(%s, ch=%d, [%.1fs,%.1fs]): matched=%d merged=%d\n",
		name, scope, channel, from, to, res.Sessions, res.Merged)
	if res.Merged > 0 {
		switch kind {
		case wire.QueryApproxCount:
			fmt.Printf("  %s ≈ %.1f (±%.2f guaranteed, %d coefficients)\n", name, res.Value, res.Bound, res.Coefficients)
		case wire.QueryCount:
			fmt.Printf("  %s = %.0f\n", name, res.Value)
		default:
			fmt.Printf("  %s = %.3f\n", name, res.Value)
		}
		for _, p := range res.Parts {
			fmt.Printf("  session %d: frames=%d n=%.0f\n", p.ID, p.Frames, p.N)
		}
	}
	for _, f := range res.Failures {
		detail := f.Text
		if detail == "" {
			detail = f.Code.String()
		}
		fmt.Fprintf(os.Stderr, "  session %d failed: %s\n", f.ID, detail)
	}
	if trace && traceAdmin != "" {
		if err := printTrace(traceAdmin, traceID); err != nil {
			fmt.Fprintf(os.Stderr, "fetch trace: %v\n", err)
		}
	}
	if !res.OK || res.Code != wire.CodeOK {
		fmt.Fprintf(os.Stderr, "fleet query %s: %s\n",
			map[bool]string{true: "partial", false: "failed"}[res.OK], res.Code)
		return 1
	}
	return 0
}

// printTrace fetches the finished trace from the admin plane's /tracez?id=
// and renders its span tree, indented by parentage, with each span's
// duration and self-time (duration minus the sum of its children). The
// server publishes the trace right after flushing the reply, so one short
// retry loop covers the race.
func printTrace(adminBase string, traceID uint64) error {
	url := strings.TrimRight(adminBase, "/") + "/tracez?id=" + obs.TraceIDString(traceID)
	var snap obs.TraceSnapshot
	deadline := time.Now().Add(2 * time.Second)
	for {
		resp, err := http.Get(url)
		if err != nil {
			return err
		}
		if resp.StatusCode == http.StatusOK {
			err = json.NewDecoder(resp.Body).Decode(&snap)
			resp.Body.Close()
			if err != nil {
				return err
			}
			break
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound || time.Now().After(deadline) {
			return fmt.Errorf("GET %s: %s", url, resp.Status)
		}
		time.Sleep(50 * time.Millisecond)
	}

	fmt.Printf("trace %s kind=%s total=%s\n", snap.TraceID, snap.Kind, time.Duration(snap.TotalNS))
	if len(snap.Attrs) > 0 {
		keys := make([]string, 0, len(snap.Attrs))
		for k := range snap.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("  %s=%s", k, snap.Attrs[k])
		}
		fmt.Println()
	}

	children := map[obs.SpanID][]obs.Span{}
	childNS := map[obs.SpanID]int64{}
	for _, sp := range snap.Spans {
		children[sp.Parent] = append(children[sp.Parent], sp)
		childNS[sp.Parent] += sp.DurationNS
	}
	var walk func(parent obs.SpanID, depth int)
	walk = func(parent obs.SpanID, depth int) {
		kids := children[parent]
		sort.Slice(kids, func(i, j int) bool {
			if kids[i].OffsetNS != kids[j].OffsetNS {
				return kids[i].OffsetNS < kids[j].OffsetNS
			}
			return kids[i].ID < kids[j].ID
		})
		for _, sp := range kids {
			self := max(sp.DurationNS-childNS[sp.ID], 0)
			fmt.Printf("  %s%-24s %12s  self %s\n",
				strings.Repeat("  ", depth), sp.Name,
				time.Duration(sp.DurationNS), time.Duration(self))
			walk(sp.ID, depth+1)
		}
	}
	walk(0, 0)
	return nil
}
