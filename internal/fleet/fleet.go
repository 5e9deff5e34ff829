// Package fleet is the cross-session query subsystem of the AIMS middle
// tier: one range-aggregate evaluated over *all sessions of a device
// class* (or an explicit session-ID set), one session after another, then
// merged into a single answer. It is the fan-in layer the paper's
// multi-user scenarios need — the virtual-classroom study analyses groups
// of tracked subjects, the haptic scenario aggregates over many
// simultaneous CyberGlove sessions — and the first query path in this
// system whose result spans stores owned by different goroutines.
//
// Consistency contract: sessions keep ingesting while a fleet query runs.
// Each session contributes frames up to its own high-water mark at the
// moment its scan runs, read in the same lock hold as its answer: for
// exact kinds the rows core.Summarize sums under the store's read lock
// (each row's cached moments are current for every frame below the
// watermark it returns); for approximate kinds, at a geometry where the
// hybrid chooser picks the standard basis on every axis (the default),
// the count cube the plan walks under that lock, and elsewhere the sealed
// engine, which no other seal moves until the answer is computed. That
// watermark is reported back per session in the result, so a caller knows
// exactly which prefix of each stream the answer covers. There is no
// cross-session barrier: the fleet answer is a consistent-per-session,
// best-effort-across-sessions snapshot.
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
// Sessions are scanned and merged in ascending session-ID order, so a
// fleet answer over a fixed set of stores is bit-identical to evaluating
// each session individually and merging client-side with the same fold
// (the equivalence property the tests pin).
//
// Approximate kinds compile once per distinct store geometry per fleet
// query, not once per session: every per-session scan routes through
// propolyne.SharedCache, whose keys are the geometry fingerprint plus the
// query shape. Sessions of one device class share their geometry, so a
// 10k-session scan pays one plan compile and 10k sparse walks — of each
// session's count cube at the default geometry, which seals nothing, or of
// its sealed engine where a wavelet axis is chosen.
package fleet

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strconv"
	"time"

	"aims/internal/core"
	"aims/internal/obs"
	"aims/internal/wire"
)

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
	// attaches one child subtree per scanned session (the exact scan, or
	// a seal where the geometry seals, plan hit/compile and dot product)
	// plus scope-match and merge spans, all under TraceParent.
	Trace       *obs.Trace
	TraceParent obs.SpanID
}

// Config shapes an evaluator. A nil instrument discards its observations.
type Config struct {
	// Timeout is the default per-query deadline (default 5s). Sessions
	// whose scan has not finished when it expires become CodeDeadline
	// failures, handled under the partial policy (see Evaluate).
	Timeout time.Duration

	FanOut       *obs.Histogram // sessions matched per query
	ScanSeconds  *obs.Histogram // one session's scan wall time
	MergeSeconds *obs.Histogram // merge wall time per query
}

func (c Config) withDefaults() Config {
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
// is the per-session scan Evaluate runs — and what a client doing its own
// merge would call per session. A non-nil req.Trace receives the
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
		est, bound, frames, err := s.Store.ApproximateCountTraced(req.Channel, req.T0, req.T1, int(req.Arg), qt)
		StampQueryTrace(tr, parent, begin, qt)
		if err != nil {
			return part, err
		}
		part.Frames = frames
		part.Sum, part.Bound, part.Coefficients = est, bound, req.Arg
	case wire.QueryProgressiveCount:
		steps, frames, err := s.Store.ProgressiveCount(req.Channel, req.T0, req.T1, int(req.Arg), qt)
		StampQueryTrace(tr, parent, begin, qt)
		if err != nil {
			return part, err
		}
		if len(steps) == 0 {
			return part, fmt.Errorf("fleet: progressive evaluation yielded no steps")
		}
		last := steps[len(steps)-1]
		part.Frames = frames
		part.Sum, part.Bound = last.Estimate, last.ErrorBound
		part.Coefficients = uint32(last.Coefficients)
	default:
		return part, fmt.Errorf("fleet: unsupported query kind %d", req.Kind)
	}
	return part, nil
}

// StampQueryTrace reconstructs a store evaluation's span breakdown under
// parent from the durations a core.QueryTrace reports: seal, then plan
// provenance (a cache hit's probe, or the compile a miss paid), then the
// coefficient dot product. The spans are laid out sequentially from start
// — that is the actual evaluation order inside the store. No-op when tr
// or qt is nil, so untraced paths never pay for it.
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
	name := "plan-compile"
	if qt.Plan.Hit {
		name = "plan-hit"
	}
	end := at.Add(time.Duration(qt.Plan.LookupNS))
	tr.AddSpan(parent, name, at, end)
	at = end
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
// caller snapshots its live sessions first). It scans the matched sessions one
// after another, in ascending ID order, on the calling goroutine, and
// always returns a well-formed FleetResult — per-session failures are
// folded in according to the request's partial policy rather than
// surfacing as an error.
//
// Deadline contract: the deadline — the request's timeout from the start
// of Evaluate, or ctx's cancellation — is checked before each scan and
// again after it, against the clock the scan is timed with. A session
// whose scan has not started by the deadline, or whose scan ends after it,
// becomes a CodeDeadline failure, so the answer is late by at most the one
// scan that crossed the deadline.
func Evaluate(ctx context.Context, sessions []Session, req Request, cfg Config) wire.FleetResult {
	cfg = cfg.withDefaults()
	timeout := req.Timeout
	if timeout <= 0 || timeout > cfg.Timeout {
		timeout = cfg.Timeout
	}
	matchStart := time.Now()
	deadline := matchStart.Add(timeout)
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

	merged := make([]wire.FleetPart, 0, len(matched))
	for _, s := range matched {
		t0 := time.Now()
		if ctx.Err() != nil || !t0.Before(deadline) {
			res.Failures = append(res.Failures, wire.FleetFailure{
				ID: s.ID, Code: wire.CodeDeadline, Text: "scan not started before the fleet deadline",
			})
			continue
		}
		sreq := req
		if req.Trace != nil {
			// One child subtree per session holding the scan's breakdown.
			sreq.TraceParent = req.Trace.StartSpan(req.TraceParent, "session-"+strconv.FormatUint(s.ID, 10))
		}
		part, err := EvalSession(s, sreq)
		if req.Trace != nil {
			req.Trace.EndSpan(sreq.TraceParent)
		}
		t1 := time.Now()
		cfg.ScanSeconds.Observe(t1.Sub(t0).Seconds())
		switch {
		case ctx.Err() != nil || t1.After(deadline):
			res.Failures = append(res.Failures, wire.FleetFailure{
				ID: s.ID, Code: wire.CodeDeadline, Text: "scan finished after the fleet deadline",
			})
		case err != nil:
			res.Failures = append(res.Failures, wire.FleetFailure{
				ID: s.ID, Code: wire.CodeBadQuery, Text: err.Error(),
			})
		default:
			merged = append(merged, part)
		}
	}

	t0 := time.Now()
	// Merged parts are in ascending session-ID order (matched is sorted and
	// the loop scans it in order), which makes the merge deterministic.
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
