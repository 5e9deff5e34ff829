package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"aims/internal/core"
	"aims/internal/wire"
)

// fleetClient registers one session of the given class and streams its
// frames, leaving the connection open for queries.
func fleetClient(t *testing.T, addr, name, class string, cl, frames, channels int) *wire.Client {
	t.Helper()
	mins, maxs := ranges(channels)
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Abort() })
	c.Window = 4
	if _, err := c.Hello(wire.Hello{
		Rate: 100, HorizonTicks: uint32(frames), Name: name, Class: class,
		Mins: mins, Maxs: maxs,
	}); err != nil {
		t.Fatal(err)
	}
	all := clientFrames(cl, frames, channels)
	for off := 0; off < len(all); off += 100 {
		end := off + 100
		if end > len(all) {
			end = len(all)
		}
		if err := c.SendBatch(all[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestFleetQueryAcrossSessions is the end-to-end fleet test: gloves and
// trackers register under their device classes, one client asks fleet
// questions over the wire, and the merged answers must equal merging each
// session's own answer client-side.
func TestFleetQueryAcrossSessions(t *testing.T) {
	const (
		gloves, trackers = 4, 2
		frames, channels = 1200, 3
	)
	srv, addr := startServer(t, Config{Store: testStoreCfg()})

	clients := make([]*wire.Client, 0, gloves+trackers)
	for i := 0; i < gloves; i++ {
		clients = append(clients, fleetClient(t, addr, fmt.Sprintf("glove-%d", i), "cyberglove", i, frames, channels))
	}
	for i := 0; i < trackers; i++ {
		clients = append(clients, fleetClient(t, addr, fmt.Sprintf("tracker-%d", i), "tracker", gloves+i, frames, channels))
	}

	// Per-session ground truth over the wire: each glove's own COUNT and
	// AVERAGE moments, merged client-side.
	const t0, t1 = 1.0, 9.0
	var wantCount, wantSum float64
	for _, c := range clients[:gloves] {
		r, err := c.Query(wire.Query{Kind: wire.QueryCount, Channel: 1, T0: t0, T1: t1})
		if err != nil {
			t.Fatal(err)
		}
		a, err := c.Query(wire.Query{Kind: wire.QueryAverage, Channel: 1, T0: t0, T1: t1})
		if err != nil {
			t.Fatal(err)
		}
		wantCount += r.Value
		wantSum += a.Value * r.Value
	}

	asker := clients[0]
	fr, err := asker.FleetQuery(wire.FleetQuery{
		Query: wire.Query{Kind: wire.QueryCount, Channel: 1, T0: t0, T1: t1},
		Scope: wire.FleetScope{Class: "cyberglove"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !fr.OK || fr.Code != wire.CodeOK {
		t.Fatalf("fleet count: %+v", fr)
	}
	if fr.Sessions != gloves || fr.Merged != gloves || len(fr.Parts) != gloves {
		t.Fatalf("fleet shape: %+v", fr)
	}
	if fr.Value != wantCount {
		t.Fatalf("fleet count %v != client-side merge %v", fr.Value, wantCount)
	}
	for _, p := range fr.Parts {
		if p.Frames != frames {
			t.Fatalf("session %d watermark %d, want %d", p.ID, p.Frames, frames)
		}
	}

	fa, err := asker.FleetQuery(wire.FleetQuery{
		Query: wire.Query{Kind: wire.QueryAverage, Channel: 1, T0: t0, T1: t1},
		Scope: wire.FleetScope{Class: "cyberglove"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !fa.OK {
		t.Fatalf("fleet average: %+v", fa)
	}
	if want := wantSum / wantCount; math.Abs(fa.Value-want) > 1e-9*math.Max(1, math.Abs(want)) {
		t.Fatalf("fleet average %v != weighted client-side merge %v", fa.Value, want)
	}

	// Scope by explicit IDs spanning both classes, with one bogus ID under
	// the partial policy: the live sessions answer, the bogus ID comes
	// back as typed per-session failure detail.
	ids := []uint64{clients[0].SessionID(), clients[gloves].SessionID(), 9999}
	partial, failed := srv.metrics.fleetPartial.Value(), srv.metrics.fleetFailed.Value()
	fp, err := asker.FleetQuery(wire.FleetQuery{
		Query:   wire.Query{Kind: wire.QueryCount, Channel: 0, T0: 0, T1: 100},
		Scope:   wire.FleetScope{IDs: ids},
		Partial: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !fp.OK || fp.Code != wire.CodePartial || fp.Merged != 2 || len(fp.Failures) != 1 {
		t.Fatalf("partial fleet: %+v", fp)
	}
	if f := fp.Failures[0]; f.ID != 9999 || f.Code != wire.CodeNotRegistered {
		t.Fatalf("failure detail: %+v", f)
	}
	if dp, df := srv.metrics.fleetPartial.Value()-partial, srv.metrics.fleetFailed.Value()-failed; dp != 1 || df != 0 {
		t.Fatalf("partial answer moved aims_fleet_partial_total by %d and aims_fleet_failed_total by %d, want 1 and 0", dp, df)
	}

	// The same query under the fail policy reports the failure code and no
	// merged value.
	ff, err := asker.FleetQuery(wire.FleetQuery{
		Query: wire.Query{Kind: wire.QueryCount, Channel: 0, T0: 0, T1: 100},
		Scope: wire.FleetScope{IDs: ids},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ff.OK || ff.Code != wire.CodeNotRegistered || ff.Value != 0 {
		t.Fatalf("fail-policy fleet: %+v", ff)
	}

	// An unknown class is a clean no-sessions answer.
	partial, failed = srv.metrics.fleetPartial.Value(), srv.metrics.fleetFailed.Value()
	fn, err := asker.FleetQuery(wire.FleetQuery{
		Query: wire.Query{Kind: wire.QueryCount, Channel: 0, T0: 0, T1: 1},
		Scope: wire.FleetScope{Class: "hmd"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if fn.OK || fn.Code != wire.CodeNoSessions {
		t.Fatalf("no-sessions fleet: %+v", fn)
	}
	if dp, df := srv.metrics.fleetPartial.Value()-partial, srv.metrics.fleetFailed.Value()-failed; dp != 0 || df != 1 {
		t.Fatalf("no-sessions answer moved aims_fleet_partial_total by %d and aims_fleet_failed_total by %d, want 0 and 1", dp, df)
	}

	// Device-class inventory feeds the /fleet admin endpoint.
	classes := srv.DeviceClasses()
	if classes["cyberglove"] != gloves || classes["tracker"] != trackers {
		t.Fatalf("device classes: %v", classes)
	}
	rec := httptest.NewRecorder()
	srv.AdminHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/fleet", nil))
	var listing struct {
		Count   int              `json:"count"`
		Classes []FleetClassInfo `json:"classes"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	if listing.Count != 2 || listing.Classes[0].Class != "cyberglove" || listing.Classes[0].Sessions != gloves {
		t.Fatalf("/fleet listing: %+v", listing)
	}

	// Approximate fleet: merged estimate within the merged (summed) bound
	// of the exact merged count.
	fx, err := asker.FleetQuery(wire.FleetQuery{
		Query: wire.Query{Kind: wire.QueryApproxCount, Channel: 1, T0: t0, T1: t1, Arg: 24},
		Scope: wire.FleetScope{Class: "cyberglove"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !fx.OK {
		t.Fatalf("approx fleet: %+v", fx)
	}
	if math.Abs(fx.Value-wantCount) > fx.Bound+1e-6 {
		t.Fatalf("approx fleet %v vs exact %v outside bound %v", fx.Value, wantCount, fx.Bound)
	}

	// A malformed range must be rejected at decode (typed), closing the
	// offending connection only.
	bad, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Abort()
	mins, maxs := ranges(1)
	if _, err := bad.Hello(wire.Hello{Rate: 100, Mins: mins, Maxs: maxs, Class: "probe"}); err != nil {
		t.Fatal(err)
	}
	_, err = bad.FleetQuery(wire.FleetQuery{
		Query: wire.Query{Kind: wire.QueryCount, T0: 5, T1: 1},
		Scope: wire.FleetScope{Class: "cyberglove"},
	})
	if err == nil {
		t.Fatal("inverted range accepted")
	}
}

// TestRegistryChurnDuringFleetScan: sessions register and leave the
// server's session table — anonymous ones, and named ones that park and are
// adopted again — while fleet snapshots run, under -race. A session live
// across a snapshot appears in it exactly once, one that left before it
// began does not appear, and no snapshot holds a session twice. Once the
// churn stops, aims_sessions_active and aims_sessions_detached read the
// table's live and parked counts.
func TestRegistryChurnDuringFleetScan(t *testing.T) {
	srv := New(Config{Store: testStoreCfg()})
	t.Cleanup(srv.retireAll) // stops the parked names' retention timers
	mins, maxs := ranges(2)
	store, err := core.NewLiveStore(mins, maxs, testStoreCfg())
	if err != nil {
		t.Fatal(err)
	}

	// A stable population that must never be missed or double-counted.
	const stable = 500
	for i := 0; i < stable; i++ {
		srv.register(&session{store: store})
	}

	const churners = 8
	var epoch atomic.Uint64
	var leftAt sync.Map // session ID → epoch once its leave returned
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < churners; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			named := w%2 == 0 // a named churner parks its name at every leave
			h := wire.Hello{Rate: 100, Name: fmt.Sprintf("churn-%d", w), Mins: mins, Maxs: maxs}
			for {
				sess := &session{store: store}
				if named {
					sess.name, sess.rate = h.Name, h.Rate
					if code := srv.claim(sess, h); code != wire.CodeOK {
						t.Errorf("claim %q: %v", h.Name, code)
						return
					}
				}
				srv.register(sess)
				srv.leave(sess)
				leftAt.Store(sess.id, epoch.Add(1))
				select {
				case <-stop:
					return
				default:
				}
			}
		}(w)
	}

	for scan := 0; scan < 200; scan++ {
		before := epoch.Load()
		snap := srv.fleetTargets()
		seen := make(map[uint64]int, len(snap))
		for _, sess := range snap {
			seen[sess.ID]++
			if seen[sess.ID] > 1 {
				t.Fatalf("scan %d: session %d double-counted", scan, sess.ID)
			}
			if at, ok := leftAt.Load(sess.ID); ok && at.(uint64) <= before {
				t.Fatalf("scan %d: session %d left before the scan began", scan, sess.ID)
			}
		}
		for id := uint64(1); id <= stable; id++ {
			if seen[id] != 1 {
				t.Fatalf("scan %d: stable session %d lost", scan, id)
			}
		}
	}
	close(stop)
	wg.Wait()
	if epoch.Load() == 0 {
		t.Fatal("no session churned during the scans")
	}

	// After the churn, exactly the stable set is live and each named
	// churner's name is parked, and the gauges read the same counts.
	live, parked := srv.tableCounts()
	if live != stable || parked != churners/2 {
		t.Fatalf("table holds %d live, %d parked after churn, want %d, %d", live, parked, stable, churners/2)
	}
	var b strings.Builder
	srv.metrics.reg.WritePrometheus(&b)
	for name, want := range map[string]int{"aims_sessions_active": live, "aims_sessions_detached": parked} {
		if line := name + " " + strconv.Itoa(want) + "\n"; !strings.Contains(b.String(), line) {
			t.Errorf("exposition lacks %q", line)
		}
	}
}
