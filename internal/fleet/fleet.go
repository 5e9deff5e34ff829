// Package fleet is the cross-session query subsystem of the AIMS middle
// tier: one range-aggregate evaluated over *all sessions of a device
// class* (or an explicit session-ID set) by scatter-gather, then merged
// into a single answer. It is the fan-in layer the paper's multi-user
// scenarios need — the virtual-classroom study analyses groups of tracked
// subjects, the haptic scenario aggregates over many simultaneous
// CyberGlove sessions — and the first query path in this system whose
// result spans stores owned by different goroutines.
//
// Consistency contract: sessions keep ingesting while a fleet query runs.
// Each session contributes frames up to its own high-water mark at scatter
// time — for exact kinds the rows core.Summarize sums under the store's
// read lock (each row's cached moments are current for every frame below
// the watermark it returns), for approximate kinds the sealed engine's
// state at evaluation — and that watermark is reported back per session in
// the result, so a caller knows exactly which prefix of each stream the
// answer covers. There is no cross-session barrier: the fleet answer is a
// consistent-per-session, best-effort-across-sessions snapshot.
//
// Merge semantics per kind:
//
//   - COUNT: direct combination, Σ per-session counts (exact).
//   - AVERAGE: weighted merge of per-session (Σv, N) pairs (exact).
//   - VARIANCE: merged from per-session moments (N, Σv, Σv²) (exact).
//   - Approximate/progressive COUNT: Σ per-session estimates, with a
//     combined guaranteed bound that is the sum of per-session bounds
//     (|Σeᵢ − Σcᵢ| ≤ Σ|eᵢ − cᵢ| ≤ Σboundᵢ).
//
// Merging folds in ascending session-ID order regardless of gather
// completion order, so a fleet answer over a fixed set of stores is
// bit-identical to evaluating each session individually and merging
// client-side with the same fold (the equivalence property the tests pin).
//
// Approximate kinds compile once per distinct engine geometry per fleet
// query, not once per session: every per-session scan routes through
// propolyne.SharedCache, whose keys are the engine geometry fingerprint
// plus the query shape, and whose per-key singleflight collapses the
// concurrent first-touch misses of a scatter wave into one compilation.
// Sessions of one device class seal to identical geometry, so a 10k-session
// scan pays one plan compile and 10k pure sparse dot products.
package fleet

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"aims/internal/core"
	"aims/internal/obs"
	"aims/internal/wire"
)

// errDeadlineSlot marks a scatter slot whose scan never started because
// the fleet deadline had already fired when a worker picked it up. The
// slot is returned immediately so one slow (or unregistered) session
// cannot starve the pool of workers that later queries share.
var errDeadlineSlot = errors.New("fleet: scan not started before the fleet deadline")

// Session is one live session as the fleet layer sees it: identity, the
// device class it registered under, and its store.
type Session struct {
	ID    uint64
	Class string
	Store *core.LiveStore
}

// Request is one fleet query.
type Request struct {
	Kind    wire.QueryKind
	Channel int
	T0, T1  float64
	Arg     uint32
	Scope   wire.FleetScope
	// Partial selects the partial-result policy: true merges whatever
	// succeeded and reports the failures (CodePartial); false fails the
	// whole query on the first per-session failure.
	Partial bool
	// Timeout caps the query's wall time; 0 uses Config.Timeout.
	Timeout time.Duration
	// Trace, when non-nil, collects the evaluation's span tree: Evaluate
	// attaches one child subtree per scoped session (queue wait, seal, plan
	// hit/compile, dot product) plus scope-match and merge spans, all under
	// TraceParent. Workers stamp spans concurrently — obs.Trace is
	// goroutine-safe and a straggler stamping after Finish is a no-op.
	Trace       *obs.Trace
	TraceParent obs.SpanID
}

// Config shapes an evaluator. A nil instrument discards its observations.
type Config struct {
	// Workers bounds the scatter fan-out pool (default 16). The pool is
	// per query; a fleet of 10k sessions is scanned Workers at a time.
	Workers int
	// Timeout is the default per-query deadline (default 5s). Sessions
	// whose scan has not finished when it expires become CodeDeadline
	// failures, handled under the partial policy.
	Timeout time.Duration

	FanOut       *obs.Histogram // sessions matched per query
	ScanSeconds  *obs.Histogram // one session's scan wall time
	MergeSeconds *obs.Histogram // merge wall time per query
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 16
	}
	if c.Timeout <= 0 {
		c.Timeout = 5 * time.Second
	}
	return c
}

// Match filters sessions by scope and returns them in ascending ID order,
// plus — for an explicit ID scope — the requested IDs that matched no live
// session (the caller reports those as per-session failures).
func Match(sessions []Session, scope wire.FleetScope) (matched []Session, missing []uint64) {
	if scope.Class != "" {
		n := 0
		for i := range sessions {
			if sessions[i].Class == scope.Class {
				n++
			}
		}
		matched = make([]Session, 0, n)
		for _, s := range sessions {
			if s.Class == scope.Class {
				matched = append(matched, s)
			}
		}
	} else {
		byID := make(map[uint64]Session, len(sessions))
		for _, s := range sessions {
			byID[s.ID] = s
		}
		seen := make(map[uint64]bool, len(scope.IDs))
		for _, id := range scope.IDs {
			if seen[id] {
				continue // a duplicated ID must not double-count its session
			}
			seen[id] = true
			if s, ok := byID[id]; ok {
				matched = append(matched, s)
			} else {
				missing = append(missing, id)
			}
		}
	}
	slices.SortFunc(matched, func(a, b Session) int { return cmp.Compare(a.ID, b.ID) })
	slices.Sort(missing)
	return matched, missing
}

// EvalSession answers one fleet request against a single session's store,
// returning the session's mergeable partial and its frame watermark. This
// is the per-session scan the scatter pool runs — and what a client doing
// its own merge would call per session. A non-nil req.Trace receives the
// scan's span breakdown under req.TraceParent.
func EvalSession(s Session, req Request) (wire.FleetPart, error) {
	part := wire.FleetPart{ID: s.ID}
	tr, parent := req.Trace, req.TraceParent
	var qt *core.QueryTrace
	var begin time.Time
	if tr != nil {
		qt = &core.QueryTrace{}
		begin = time.Now()
	}
	switch req.Kind {
	case wire.QueryCount, wire.QueryAverage, wire.QueryVariance:
		sum, frames, err := s.Store.Summarize(req.Channel, req.T0, req.T1)
		if tr != nil {
			tr.AddSpan(parent, "scan", begin, time.Now())
		}
		if err != nil {
			return part, err
		}
		part.Frames = frames
		part.N, part.Sum, part.SumSq = sum.N, sum.Sum, sum.SumSq
	case wire.QueryApproxCount:
		est, bound, err := s.Store.ApproximateCountTraced(req.Channel, req.T0, req.T1, int(req.Arg), qt)
		StampQueryTrace(tr, parent, begin, qt)
		if err != nil {
			return part, err
		}
		part.Frames = uint64(s.Store.Frames())
		part.Sum, part.Bound, part.Coefficients = est, bound, req.Arg
	case wire.QueryProgressiveCount:
		steps, err := s.Store.ProgressiveCount(req.Channel, req.T0, req.T1, int(req.Arg), qt)
		StampQueryTrace(tr, parent, begin, qt)
		if err != nil {
			return part, err
		}
		if len(steps) == 0 {
			return part, fmt.Errorf("fleet: progressive evaluation yielded no steps")
		}
		last := steps[len(steps)-1]
		part.Frames = uint64(s.Store.Frames())
		part.Sum, part.Bound = last.Estimate, last.ErrorBound
		part.Coefficients = uint32(last.Coefficients)
	default:
		return part, fmt.Errorf("fleet: unsupported query kind %d", req.Kind)
	}
	return part, nil
}

// StampQueryTrace reconstructs a store evaluation's span breakdown under
// parent from the durations a core.QueryTrace reports: seal, then plan
// provenance (cache hit, or the compile a miss paid), then the coefficient
// dot product. The spans are laid out sequentially from start — that is
// the actual evaluation order inside the store. No-op when tr or qt is
// nil, so untraced paths never pay for it.
func StampQueryTrace(tr *obs.Trace, parent obs.SpanID, start time.Time, qt *core.QueryTrace) {
	if tr == nil || qt == nil {
		return
	}
	at := start
	if qt.SealNS > 0 {
		end := at.Add(time.Duration(qt.SealNS))
		tr.AddSpan(parent, "seal", at, end)
		at = end
	}
	if !qt.PlanUsed {
		return
	}
	if qt.Plan.Hit {
		tr.AddSpan(parent, "plan-hit", at, at)
	} else {
		end := at.Add(time.Duration(qt.Plan.CompileNS))
		tr.AddSpan(parent, "plan-compile", at, end)
		at = end
	}
	tr.AddSpan(parent, "dot", at, at.Add(time.Duration(qt.Plan.EvalNS)))
}

// Merge folds per-session partials — in the order given — into the fleet
// answer for the kind. ok=false mirrors the engine's empty-range signal
// (AVERAGE/VARIANCE over zero merged samples).
func Merge(kind wire.QueryKind, parts []wire.FleetPart) (value, bound float64, coefficients uint32, ok bool) {
	switch kind {
	case wire.QueryCount:
		var s core.Summary
		for _, p := range parts {
			s.Merge(core.Summary{N: p.N, Sum: p.Sum, SumSq: p.SumSq})
		}
		return s.Count(), 0, 0, true
	case wire.QueryAverage:
		var s core.Summary
		for _, p := range parts {
			s.Merge(core.Summary{N: p.N, Sum: p.Sum, SumSq: p.SumSq})
		}
		v, ok := s.Average()
		return v, 0, 0, ok
	case wire.QueryVariance:
		var s core.Summary
		for _, p := range parts {
			s.Merge(core.Summary{N: p.N, Sum: p.Sum, SumSq: p.SumSq})
		}
		v, ok := s.Variance()
		return v, 0, 0, ok
	case wire.QueryApproxCount, wire.QueryProgressiveCount:
		for _, p := range parts {
			value += p.Sum
			bound += p.Bound
			coefficients += p.Coefficients
		}
		return value, bound, coefficients, true
	}
	return 0, 0, 0, false
}

// Evaluate runs one fleet query over the given session snapshot (the
// caller snapshots its registry first; the slice is the scatter set).
// It always returns a well-formed FleetResult — per-session failures are
// folded in according to the request's partial policy rather than
// surfacing as an error.
func Evaluate(ctx context.Context, sessions []Session, req Request, cfg Config) wire.FleetResult {
	cfg = cfg.withDefaults()
	timeout := req.Timeout
	if timeout <= 0 || timeout > cfg.Timeout {
		timeout = cfg.Timeout
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	matchStart := time.Now()
	matched, missing := Match(sessions, req.Scope)
	if req.Trace != nil {
		req.Trace.AddSpan(req.TraceParent, "scope-match", matchStart, time.Now())
	}
	res := wire.FleetResult{Kind: req.Kind, Sessions: uint32(len(matched))}
	for _, id := range missing {
		res.Failures = append(res.Failures, wire.FleetFailure{
			ID: id, Code: wire.CodeNotRegistered, Text: "no live session with this id",
		})
	}
	cfg.FanOut.Observe(float64(len(matched)))

	// Scatter: a bounded worker pool claims session indices off a shared
	// counter — no per-session hand-off, so on an otherwise quiet server a
	// fleet costs one thread wake-up per worker, not one per session. A
	// worker writes its outcome into the session's slot and sends only the
	// slot index; the gather reads a slot only once it has received its
	// index, so a straggler finishing after the deadline writes a slot
	// nobody reads. The buffered channel means it never blocks either.
	workers := cfg.Workers
	if workers > len(matched) {
		workers = len(matched)
	}
	var next atomic.Int64
	scattered := time.Now()
	parts := make([]wire.FleetPart, len(matched))
	errs := make([]error, len(matched))
	done := make(chan int, len(matched))
	for w := 0; w < workers; w++ {
		go func() {
			for {
				idx := int(next.Add(1)) - 1
				if idx >= len(matched) {
					return
				}
				// Expired already? Return the slot without scanning: the
				// gather marks it CodeDeadline, and the worker is free for
				// the next job instead of burning its budget on an answer
				// nobody will read.
				select {
				case <-ctx.Done():
					errs[idx] = errDeadlineSlot
					done <- idx
					continue
				default:
				}
				t0 := time.Now()
				sreq := req
				if req.Trace != nil {
					// One child subtree per session: queue wait (scatter start
					// to worker pickup), then the scan's internal breakdown.
					// Stamps on a trace a deadline already finished are no-ops.
					sreq.TraceParent = req.Trace.StartSpan(req.TraceParent,
						fmt.Sprintf("session-%d", matched[idx].ID))
					req.Trace.AddSpan(sreq.TraceParent, "queue-wait", scattered, t0)
				}
				parts[idx], errs[idx] = EvalSession(matched[idx], sreq)
				if req.Trace != nil {
					req.Trace.EndSpan(sreq.TraceParent)
				}
				cfg.ScanSeconds.Observe(time.Since(t0).Seconds())
				done <- idx
			}
		}()
	}

	// Gather until every slot reports or the deadline fires; slots still
	// outstanding at the deadline become CodeDeadline failures. reported
	// marks the slots whose index arrived — the only ones read below.
	reported := make([]bool, len(matched))
gather:
	for range matched {
		select {
		case idx := <-done:
			reported[idx] = true
		case <-ctx.Done():
			break gather
		}
	}

	t0 := time.Now()
	merged := make([]wire.FleetPart, 0, len(matched))
	for i, s := range matched {
		switch {
		case !reported[i]:
			res.Failures = append(res.Failures, wire.FleetFailure{
				ID: s.ID, Code: wire.CodeDeadline, Text: "scan unfinished at fleet deadline",
			})
		case errs[i] == nil:
			merged = append(merged, parts[i])
		case errors.Is(errs[i], errDeadlineSlot):
			res.Failures = append(res.Failures, wire.FleetFailure{
				ID: s.ID, Code: wire.CodeDeadline, Text: errs[i].Error(),
			})
		default:
			res.Failures = append(res.Failures, wire.FleetFailure{
				ID: s.ID, Code: wire.CodeBadQuery, Text: errs[i].Error(),
			})
		}
	}
	// Merged parts are already in ascending session-ID order (matched is
	// sorted and the fold preserves it), which makes the merge
	// deterministic no matter how the gather interleaved.
	res.Merged = uint32(len(merged))
	res.Value, res.Bound, res.Coefficients, res.OK = Merge(req.Kind, merged)
	if req.Trace != nil {
		req.Trace.AddSpan(req.TraceParent, "merge", t0, time.Now())
	}
	cfg.MergeSeconds.Observe(time.Since(t0).Seconds())

	switch {
	case len(merged) == 0 && len(res.Failures) == 0:
		res.OK = false
		res.Code = wire.CodeNoSessions
	case len(res.Failures) > 0 && !req.Partial:
		res.OK = false
		res.Code = res.Failures[0].Code
		res.Value, res.Bound, res.Coefficients = 0, 0, 0
	case len(res.Failures) > 0:
		res.Code = wire.CodePartial
		if len(merged) == 0 {
			res.OK = false
		}
	default:
		res.Code = wire.CodeOK
	}

	// Per-session detail: watermarks and mergeable partials, capped so a
	// 10k-session fleet answer stays a bounded message.
	if len(merged) > wire.MaxFleetDetail {
		merged = merged[:wire.MaxFleetDetail]
	}
	res.Parts = merged
	if len(res.Failures) > wire.MaxFleetDetail {
		res.Failures = res.Failures[:wire.MaxFleetDetail]
	}
	return res
}
