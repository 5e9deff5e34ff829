package fleet

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"aims/internal/core"
	"aims/internal/obs"
	"aims/internal/propolyne"
	"aims/internal/stream"
	"aims/internal/wire"
)

// fleetStoreCfg is the fleet tests' store geometry. At 64 time buckets × 32
// value bins the hybrid chooser keeps the standard basis on every axis,
// so approximate scans walk the count cube and never seal.
var fleetStoreCfg = core.LiveStoreConfig{Rate: 100, TimeBuckets: 64, ValueBins: 32, HorizonTicks: 6400}

// sealingStoreCfg is fleetStoreCfg at 1024 time buckets, where the chooser
// puts the time axis in a wavelet basis, so an approximate scan seals
// first; every materialising seal is reported to observe.
func sealingStoreCfg(observe func(time.Duration, bool, int)) core.LiveStoreConfig {
	cfg := fleetStoreCfg
	cfg.TimeBuckets, cfg.SealObserver = 1024, observe
	return cfg
}

// buildFleet creates n sessions of the given class, each with its own
// random frame count and (for odd IDs) its own value range, so merges
// cross heterogeneous quantisers.
func buildFleet(t testing.TB, n int, class string, seed int64) []Session {
	t.Helper()
	return buildFleetAt(t, n, class, seed, fleetStoreCfg)
}

// buildFleetAt is buildFleet with every store made at cfg.
func buildFleetAt(t testing.TB, n int, class string, seed int64, cfg core.LiveStoreConfig) []Session {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	out := make([]Session, 0, n)
	for i := 0; i < n; i++ {
		lo, hi := -1.0, 1.0
		if i%2 == 1 {
			lo, hi = 0, 10
		}
		ls, err := core.NewLiveStore([]float64{lo, lo}, []float64{hi, hi}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		frames := 500 + rng.Intn(2000)
		batch := make([]stream.Frame, frames)
		for j := range batch {
			batch[j] = stream.Frame{
				T:      float64(j) / 100,
				Values: []float64{lo + rng.Float64()*(hi-lo), lo + rng.Float64()*(hi-lo)},
			}
		}
		if stored, err := ls.AppendFrames(batch); err != nil || stored != frames {
			t.Fatalf("append %d/%d: %v", stored, frames, err)
		}
		out = append(out, Session{ID: uint64(i + 1), Class: class, Store: ls})
	}
	return out
}

// TestEquivalenceExactKinds is the acceptance property: for exact kinds a
// fleet query over N sessions is bit-identical to querying each session
// individually and merging client-side with the same fold.
func TestEquivalenceExactKinds(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		sessions := buildFleet(t, 9, "glove", seed)
		rng := rand.New(rand.NewSource(seed * 77))
		for _, kind := range []wire.QueryKind{wire.QueryCount, wire.QueryAverage, wire.QueryVariance} {
			t0 := rng.Float64() * 10
			req := Request{
				Kind: kind, Channel: rng.Intn(2), T0: t0, T1: t0 + rng.Float64()*40,
				Scope: wire.FleetScope{Class: "glove"},
			}
			// Fleet path: one Evaluate over the whole class.
			res := Evaluate(context.Background(), sessions, req, Config{})
			if !res.OK || res.Code != wire.CodeOK {
				t.Fatalf("seed %d kind %d: fleet failed: %+v", seed, kind, res)
			}
			if int(res.Sessions) != len(sessions) || res.Merged != res.Sessions {
				t.Fatalf("seed %d kind %d: matched %d merged %d", seed, kind, res.Sessions, res.Merged)
			}
			// Client-side path: evaluate each session individually, in
			// ascending ID order, and merge with the exported fold.
			matched, _ := Match(sessions, req.Scope)
			var parts []wire.FleetPart
			for _, s := range matched {
				p, err := EvalSession(s, req)
				if err != nil {
					t.Fatal(err)
				}
				parts = append(parts, p)
			}
			want, _, _, ok := Merge(kind, parts)
			if !ok {
				t.Fatalf("seed %d kind %d: client merge not ok", seed, kind)
			}
			if res.Value != want { // bit-identical, not approximately equal
				t.Fatalf("seed %d kind %d: fleet %v != client merge %v (diff %g)",
					seed, kind, res.Value, want, res.Value-want)
			}
			if len(res.Parts) != len(parts) {
				t.Fatalf("parts %d != %d", len(res.Parts), len(parts))
			}
			for i := range parts {
				if res.Parts[i] != parts[i] {
					t.Fatalf("part %d: %+v != %+v", i, res.Parts[i], parts[i])
				}
			}
		}
	}
}

// TestApproxBoundSound is the approximate acceptance property: the merged
// estimate's summed error bound must contain the true merged count on
// randomized workloads.
func TestApproxBoundSound(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		sessions := buildFleet(t, 5, "glove", seed)
		rng := rand.New(rand.NewSource(seed * 131))
		for trial := 0; trial < 4; trial++ {
			t0 := rng.Float64() * 20
			t1 := t0 + rng.Float64()*30
			budget := 4 + rng.Intn(60)
			req := Request{
				Kind: wire.QueryApproxCount, Channel: rng.Intn(2), T0: t0, T1: t1,
				Arg: uint32(budget), Scope: wire.FleetScope{Class: "glove"},
			}
			res := Evaluate(context.Background(), sessions, req, Config{})
			if !res.OK {
				t.Fatalf("seed %d: approx fleet failed: %+v", seed, res)
			}
			// True merged answer from the exact path.
			var truth float64
			for _, s := range sessions {
				sum, _, err := s.Store.Summarize(req.Channel, t0, t1)
				if err != nil {
					t.Fatal(err)
				}
				truth += sum.N
			}
			if err := math.Abs(res.Value - truth); err > res.Bound+1e-6 {
				t.Fatalf("seed %d trial %d: |est %v - true %v| = %v exceeds merged bound %v",
					seed, trial, res.Value, truth, err, res.Bound)
			}
		}
	}
}

// TestClassSharesOnePlan: every session of a class has the same store
// geometry, so an approximate fleet query compiles one plan through the
// process-wide cache and the other sessions hit it; a repeat query compiles
// nothing. Not parallel: propolyne.SharedCache is process-global.
func TestClassSharesOnePlan(t *testing.T) {
	const n = 64
	sessions := buildFleet(t, n, "glove", 11)
	req := Request{
		Kind: wire.QueryApproxCount, Channel: 1, T0: 2, T1: 17,
		Arg: 64, Scope: wire.FleetScope{Class: "glove"},
	}
	propolyne.SharedCache.Purge()
	before := propolyne.SharedCache.Stats()
	if res := Evaluate(context.Background(), sessions, req, Config{}); !res.OK {
		t.Fatalf("approx fleet failed: %+v", res)
	}
	first := propolyne.SharedCache.Stats()
	if miss, hit := first.Misses-before.Misses, first.Hits-before.Hits; miss != 1 || hit != n-1 {
		t.Fatalf("first query: %d misses / %d hits, want 1 / %d", miss, hit, n-1)
	}
	if res := Evaluate(context.Background(), sessions, req, Config{}); !res.OK {
		t.Fatalf("repeat approx fleet failed: %+v", res)
	}
	if miss := propolyne.SharedCache.Stats().Misses - first.Misses; miss != 0 {
		t.Fatalf("repeat query compiled %d plans, want 0", miss)
	}
}

func TestScopeByIDsAndMissing(t *testing.T) {
	sessions := buildFleet(t, 4, "glove", 3)
	req := Request{
		Kind: wire.QueryCount, Channel: 0, T0: 0, T1: 100,
		Scope: wire.FleetScope{IDs: []uint64{2, 4, 99, 2}}, // dup 2, missing 99
	}
	// Fail policy: the missing session fails the whole query.
	res := Evaluate(context.Background(), sessions, req, Config{})
	if res.OK || res.Code != wire.CodeNotRegistered {
		t.Fatalf("fail policy: %+v", res)
	}
	if res.Value != 0 {
		t.Fatalf("failed query leaked a value %v", res.Value)
	}

	// Partial policy: sessions 2 and 4 answer, 99 is reported missing, and
	// the duplicated ID contributes exactly once.
	req.Partial = true
	res = Evaluate(context.Background(), sessions, req, Config{})
	if !res.OK || res.Code != wire.CodePartial {
		t.Fatalf("partial policy: %+v", res)
	}
	if res.Sessions != 2 || res.Merged != 2 || len(res.Failures) != 1 {
		t.Fatalf("partial shape: %+v", res)
	}
	if res.Failures[0].ID != 99 || res.Failures[0].Code != wire.CodeNotRegistered {
		t.Fatalf("failure detail: %+v", res.Failures[0])
	}
	var want float64
	for _, s := range sessions {
		if s.ID == 2 || s.ID == 4 {
			sum, _, _ := s.Store.Summarize(0, 0, 100)
			want += sum.N
		}
	}
	if res.Value != want {
		t.Fatalf("partial merge %v != %v", res.Value, want)
	}
}

func TestScopeNoSessions(t *testing.T) {
	sessions := buildFleet(t, 3, "glove", 5)
	res := Evaluate(context.Background(), sessions, Request{
		Kind: wire.QueryCount, T0: 0, T1: 1, Scope: wire.FleetScope{Class: "tracker"},
	}, Config{})
	if res.OK || res.Code != wire.CodeNoSessions || res.Sessions != 0 {
		t.Fatalf("empty scope: %+v", res)
	}
}

func TestBadChannelBecomesPerSessionFailure(t *testing.T) {
	sessions := buildFleet(t, 3, "glove", 9)
	req := Request{
		Kind: wire.QueryAverage, Channel: 7, T0: 0, T1: 10,
		Scope: wire.FleetScope{Class: "glove"}, Partial: true,
	}
	res := Evaluate(context.Background(), sessions, req, Config{})
	if res.OK || len(res.Failures) != 3 {
		t.Fatalf("bad channel: %+v", res)
	}
	for _, f := range res.Failures {
		if f.Code != wire.CodeBadQuery || f.Text == "" {
			t.Fatalf("failure detail: %+v", f)
		}
	}
}

// TestDeadlineYieldsPartial forces the scan loop past its deadline: 48
// sessions at a sealing geometry that each need a cold ProPolyne seal,
// which outlives the 1ms budget. Unfinished sessions must come back as
// CodeDeadline failures under the partial policy, never as a hang.
func TestDeadlineYieldsPartial(t *testing.T) {
	sessions := buildFleetAt(t, 48, "glove", 13, sealingStoreCfg(func(time.Duration, bool, int) { time.Sleep(20 * time.Millisecond) }))
	req := Request{
		Kind: wire.QueryApproxCount, Channel: 0, T0: 0, T1: 30, Arg: 16,
		Scope: wire.FleetScope{Class: "glove"}, Partial: true,
		Timeout: time.Millisecond,
	}
	start := time.Now()
	res := Evaluate(context.Background(), sessions, req, Config{})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline did not bound the query: %s", elapsed)
	}
	if len(res.Failures) == 0 {
		t.Fatalf("no failures in %+v", res)
	}
	if res.Code != wire.CodePartial {
		t.Fatalf("code %s, want partial", res.Code)
	}
	deadline := 0
	for _, f := range res.Failures {
		if f.Code == wire.CodeDeadline {
			deadline++
		}
	}
	if deadline == 0 {
		t.Fatalf("no deadline failures in %+v", res.Failures)
	}
	if int(res.Merged)+len(res.Failures) != 48 {
		t.Fatalf("merged %d + failed %d != 48", res.Merged, len(res.Failures))
	}
}

// TestProgressiveMergesFinalSteps: each session's progressive evaluation
// converges to its exact count, so the merged fleet answer equals the
// summed exact counts with a (near-)zero combined bound.
func TestProgressiveMergesFinalSteps(t *testing.T) {
	sessions := buildFleet(t, 4, "glove", 21)
	req := Request{
		Kind: wire.QueryProgressiveCount, Channel: 1, T0: 2, T1: 18, Arg: 64,
		Scope: wire.FleetScope{Class: "glove"},
	}
	res := Evaluate(context.Background(), sessions, req, Config{})
	if !res.OK {
		t.Fatalf("progressive fleet failed: %+v", res)
	}
	var truth float64
	for _, s := range sessions {
		sum, _, _ := s.Store.Summarize(1, 2, 18)
		truth += sum.N
	}
	if math.Abs(res.Value-truth) > res.Bound+1e-6 {
		t.Fatalf("progressive merge %v vs truth %v outside bound %v", res.Value, truth, res.Bound)
	}
}

// TestExpiredDeadlineReturnsSlotsWithoutScanning: once the fleet deadline
// has fired, every session not yet scanned must come back as a
// CodeDeadline failure instead of being scanned for an answer nobody will
// read. With the context cancelled before the loop starts, not a single
// scan may run.
func TestExpiredDeadlineReturnsSlotsWithoutScanning(t *testing.T) {
	sessions := buildFleet(t, 8, "glove", 31)
	scans := obs.NewRegistry().Histogram("scan_seconds", "", []float64{1})
	cfg := Config{ScanSeconds: scans}
	req := Request{
		Kind: wire.QueryCount, Channel: 0, T0: 0, T1: 30,
		Scope: wire.FleetScope{Class: "glove"}, Partial: true,
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // expired before the first scan
	res := Evaluate(ctx, sessions, req, cfg)
	if got := scans.Count(); got != 0 {
		t.Fatalf("%d scans ran after the deadline expired, want 0", got)
	}
	if len(res.Failures) != 8 || res.Merged != 0 {
		t.Fatalf("merged %d + failed %d, want 0 + 8", res.Merged, len(res.Failures))
	}
	for _, f := range res.Failures {
		if f.Code != wire.CodeDeadline {
			t.Fatalf("failure %+v, want CodeDeadline", f)
		}
	}
	if res.Code != wire.CodePartial {
		t.Fatalf("code %s, want partial", res.Code)
	}
}

// TestEvaluateExactAllocations pins what an exact fleet query over 96
// sessions allocates: the matched and merged slices, not a copy per
// session, which would add 96, nor a timer for the deadline.
func TestEvaluateExactAllocations(t *testing.T) {
	const maxExactAllocs = 2
	sessions := buildFleet(t, 96, "glove", 41)
	req := Request{
		Kind: wire.QueryAverage, Channel: 1, T0: 1, T1: 12,
		Scope: wire.FleetScope{Class: "glove"},
	}
	if res := Evaluate(context.Background(), sessions, req, Config{}); !res.OK || res.Merged != 96 {
		t.Fatalf("exact fleet failed: %+v", res)
	}
	allocs := testing.AllocsPerRun(20, func() {
		Evaluate(context.Background(), sessions, req, Config{})
	})
	if allocs > maxExactAllocs {
		t.Fatalf("an exact 96-session Evaluate made %v allocations, want at most %d", allocs, maxExactAllocs)
	}
}

// slowSession is one glove session whose store holds a single frame and
// whose seal — the first step of an approximate scan at its sealing
// geometry — takes 150 ms, three times the 50 ms deadline the deadline
// tests give a query.
func slowSession(t testing.TB, id uint64) Session {
	t.Helper()
	slow, err := core.NewLiveStore([]float64{-1, -1}, []float64{1, 1},
		sealingStoreCfg(func(time.Duration, bool, int) { time.Sleep(150 * time.Millisecond) }))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := slow.AppendFrames([]stream.Frame{{T: 0, Values: []float64{0.5, -0.5}}}); err != nil {
		t.Fatal(err)
	}
	return Session{ID: id, Class: "glove", Store: slow}
}

// TestDeadlineStopsTheLoop pins the deadline contract: sessions are
// scanned in ID order on the calling goroutine, and the deadline is checked
// before each scan and after it. A fast session, then the slow one whose
// scan starts before the 50 ms deadline and ends after it, then two fast
// ones: the slow session fails because its scan ended late, the two after
// it fail without being scanned, and Evaluate returns within the deadline
// plus the slow scan.
func TestDeadlineStopsTheLoop(t *testing.T) {
	sessions := buildFleet(t, 3, "glove", 19)
	sessions[1].ID, sessions[2].ID = 3, 4
	sessions = append(sessions, slowSession(t, 2))
	scans := obs.NewRegistry().Histogram("scan_seconds", "", []float64{1})
	const timeout = 50 * time.Millisecond
	req := Request{
		Kind: wire.QueryApproxCount, Channel: 0, T0: 0, T1: 30, Arg: 16,
		Scope: wire.FleetScope{Class: "glove"}, Partial: true, Timeout: timeout,
	}
	start := time.Now()
	res := Evaluate(context.Background(), sessions, req, Config{ScanSeconds: scans})
	elapsed := time.Since(start)
	if res.Code != wire.CodePartial || res.Merged != 1 || len(res.Parts) != 1 || res.Parts[0].ID != 1 {
		t.Fatalf("code %s, merged %d, parts %+v; want partial with session 1 alone merged", res.Code, res.Merged, res.Parts)
	}
	if len(res.Failures) != 3 {
		t.Fatalf("failures %+v, want sessions 2, 3 and 4", res.Failures)
	}
	for i, f := range res.Failures {
		if f.ID != uint64(i+2) || f.Code != wire.CodeDeadline {
			t.Fatalf("failure %d: %+v, want session %d at the deadline", i, f, i+2)
		}
	}
	if got := scans.Count(); got != 2 {
		t.Fatalf("%d scans ran, want 2: sessions 1 and 2, none after the deadline", got)
	}
	// Both scans ran inside Evaluate, one after the other, and the slow one
	// started before the deadline: the query's wall time is at most the
	// deadline plus the scans, with a little room for matching and merging.
	if limit := timeout + time.Duration(scans.Sum()*float64(time.Second)) + 50*time.Millisecond; elapsed > limit {
		t.Fatalf("Evaluate took %s, want at most %s", elapsed, limit)
	}
}

// TestStragglerFinishingAfterDeadline: a session whose scan outlives the
// fleet deadline comes back as a deadline failure even though its scan
// finished, and its late answer is not merged: the returned parts re-merge
// to the returned value.
func TestStragglerFinishingAfterDeadline(t *testing.T) {
	sessions := append(buildFleet(t, 4, "glove", 17), slowSession(t, 99))
	scans := obs.NewRegistry().Histogram("scan_seconds", "", []float64{1})
	req := Request{
		Kind: wire.QueryApproxCount, Channel: 0, T0: 0, T1: 30, Arg: 16,
		Scope: wire.FleetScope{Class: "glove"}, Partial: true, Timeout: 50 * time.Millisecond,
	}
	res := Evaluate(context.Background(), sessions, req, Config{ScanSeconds: scans})
	if res.Code != wire.CodePartial || res.Merged != 4 || len(res.Failures) != 1 {
		t.Fatalf("code %s, merged %d, failures %+v; want partial, 4 merged, session 99 failed", res.Code, res.Merged, res.Failures)
	}
	if f := res.Failures[0]; f.ID != 99 || f.Code != wire.CodeDeadline {
		t.Fatalf("failure %+v, want session 99 at the deadline", f)
	}
	deadline := time.Now().Add(5 * time.Second)
	for scans.Count() < 5 {
		if time.Now().After(deadline) {
			t.Fatalf("the straggler never finished: %d scans", scans.Count())
		}
		time.Sleep(time.Millisecond)
	}
	if got, _, _, _ := Merge(req.Kind, res.Parts); got != res.Value {
		t.Fatalf("re-merging the returned parts gives %v, the result says %v", got, res.Value)
	}
}

// TestWatermarkCoversTheEstimate pins the consistency contract for the
// approximate kinds: a session's watermark is the frames its answer
// covers. Appenders keep storing frames while progressive fleet queries
// run over each session's whole range, where every frame counts once, so
// every part's final estimate — exact, up to the wavelet sum's rounding
// on the sealed engine — must equal its Frames, at the cube-walking
// geometry and at a sealing one.
func TestWatermarkCoversTheEstimate(t *testing.T) {
	for name, cfg := range map[string]core.LiveStoreConfig{"cube": fleetStoreCfg, "sealed": sealingStoreCfg(nil)} {
		t.Run(name, func(t *testing.T) {
			sessions := buildFleetAt(t, 3, "glove", 23, cfg)
			stop := make(chan struct{})
			done := make(chan struct{})
			defer func() {
				close(stop)
				<-done
			}()
			go func() {
				defer close(done)
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					frame := []stream.Frame{{T: float64(i%3000) / 100, Values: []float64{0.5, 0.5}}}
					for _, s := range sessions {
						if _, err := s.Store.AppendFrames(frame); err != nil {
							t.Error(err)
							return
						}
					}
				}
			}()
			req := Request{
				Kind: wire.QueryProgressiveCount, Channel: 1, T0: 0, T1: 1e9, Arg: 4,
				Scope: wire.FleetScope{Class: "glove"},
			}
			for q := 0; q < 40; q++ {
				res := Evaluate(context.Background(), sessions, req, Config{})
				if !res.OK || len(res.Parts) != len(sessions) {
					t.Fatalf("query %d: %+v", q, res)
				}
				for _, p := range res.Parts {
					if math.Round(p.Sum) != float64(p.Frames) {
						t.Fatalf("query %d: session %d answers %v frames at watermark %d", q, p.ID, p.Sum, p.Frames)
					}
				}
			}
		})
	}
}
