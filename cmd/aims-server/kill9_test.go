package main

import (
	"bufio"
	"math"
	"os/exec"
	"path/filepath"
	"regexp"
	"syscall"
	"testing"
	"time"

	"aims/internal/core"
	"aims/internal/stream"
	"aims/internal/wire"
)

var listenRe = regexp.MustCompile(`listening on (\S+)`)

// startServerProc launches the built binary and blocks until it logs its
// bound address.
func startServerProc(t *testing.T, bin string, args ...string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			t.Logf("server: %s", line)
			if m := listenRe.FindStringSubmatch(line); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return cmd, addr
	case <-time.After(15 * time.Second):
		cmd.Process.Kill()
		t.Fatal("server never reported its listen address")
		return nil, ""
	}
}

func kill9Frames(n, channels int, rate float64) []stream.Frame {
	out := make([]stream.Frame, n)
	for i := range out {
		vals := make([]float64, channels)
		for c := range vals {
			vals[c] = 40*math.Sin(float64(i)*0.07+float64(c)) + float64(c)
		}
		out[i] = stream.Frame{T: float64(i) / rate, Values: vals}
	}
	return out
}

// TestKill9RecoverAnswersIdentically is the crash-recovery integration
// test: ingest against a real aims-server process with journaling on,
// SIGKILL it mid-stream with batches still in flight, restart it over the
// same data dir, and require the resumed session to answer exact and
// approximate queries identically to an uninterrupted store holding the
// same recovered frames.
func TestKill9RecoverAnswersIdentically(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and SIGKILLs a real server process")
	}
	const (
		channels = 4
		rate     = 100.0
		horizon  = 4000
		durable  = 2000 // flushed before the kill: guaranteed recovered
		inflight = 500  // streamed after the flush, unacked at the kill
	)

	bin := buildServer(t)
	dataDir := filepath.Join(t.TempDir(), "data")
	serverArgs := []string{
		"-listen", "tcp://127.0.0.1:0", "-data-dir", dataDir, "-fsync", "batch",
		"-snapshot-frames", "1000", "-buckets", "64", "-bins", "32", "-metrics", "0",
	}

	all := kill9Frames(durable+inflight, channels, rate)
	mins := make([]float64, channels)
	maxs := make([]float64, channels)
	for c := range mins {
		mins[c], maxs[c] = -50, 50
	}
	hello := wire.Hello{Rate: rate, HorizonTicks: horizon, Name: "kill9 glove", Mins: mins, Maxs: maxs}

	srv1, addr := startServerProc(t, bin, serverArgs...)
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Hello(hello); err != nil {
		t.Fatal(err)
	}
	c.Window = 4
	for at := 0; at < durable; at += 100 {
		if err := c.SendBatch(all[at : at+100]); err != nil {
			t.Fatal(err)
		}
	}
	if stored, err := c.Flush(); err != nil || stored != durable {
		t.Fatalf("flush: stored=%d err=%v, want %d", stored, err, durable)
	}
	// Keep streaming so the kill lands mid-ingest with unacked batches.
	for at := durable; at < durable+inflight; at += 50 {
		if err := c.SendBatch(all[at : at+50]); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv1.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	srv1.Wait()
	c.Abort()

	srv2, addr2 := startServerProc(t, bin, serverArgs...)
	defer func() {
		srv2.Process.Kill()
		srv2.Wait()
	}()
	c2, err := wire.Dial(addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Abort()
	w, err := c2.Hello(hello)
	if err != nil {
		t.Fatal(err)
	}
	if w.Code != wire.CodeResumed {
		t.Fatalf("reconnect code = %v, want resumed", w.Code)
	}

	r, err := c2.Query(wire.Query{Kind: wire.QueryCount, Channel: 0, T0: 0, T1: horizon / rate})
	if err != nil {
		t.Fatal(err)
	}
	recovered := int(r.Value + 0.5)
	if recovered < durable || recovered > durable+inflight {
		t.Fatalf("recovered %d frames, want between %d and %d", recovered, durable, durable+inflight)
	}
	t.Logf("recovered %d frames (%d flushed + %d of %d in flight)", recovered, durable, recovered-durable, inflight)

	// The uninterrupted baseline: the same recovered prefix appended
	// directly into a local store of the same shape.
	mirror, err := core.NewLiveStore(mins, maxs, core.LiveStoreConfig{
		TimeBuckets: 64, ValueBins: 32, Rate: rate, HorizonTicks: horizon,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := mirror.AppendFrames(all[:recovered]); n != recovered {
		t.Fatalf("mirror accepted %d frames, want %d", n, recovered)
	}
	for ch := 0; ch < channels; ch++ {
		for _, span := range [][2]float64{{0, horizon / rate}, {3, 11}, {0.5, 19.5}} {
			want, err := mirror.CountSamples(ch, span[0], span[1])
			if err != nil {
				t.Fatal(err)
			}
			r, err := c2.Query(wire.Query{Kind: wire.QueryCount, Channel: uint16(ch), T0: span[0], T1: span[1]})
			if err != nil {
				t.Fatal(err)
			}
			if r.Value != want {
				t.Fatalf("ch %d count over %v: recovered %v, baseline %v", ch, span, r.Value, want)
			}
			wantAvg, okAvg, err := mirror.AverageValue(ch, span[0], span[1])
			if err != nil {
				t.Fatal(err)
			}
			ra, err := c2.Query(wire.Query{Kind: wire.QueryAverage, Channel: uint16(ch), T0: span[0], T1: span[1]})
			if err != nil {
				t.Fatal(err)
			}
			if ra.OK != okAvg || math.Abs(ra.Value-wantAvg) > 1e-9 {
				t.Fatalf("ch %d average over %v: recovered %v (ok=%v), baseline %v (ok=%v)",
					ch, span, ra.Value, ra.OK, wantAvg, okAvg)
			}
		}
		// Approximate (truncated-coefficient) answers must match too: the
		// recovered wavelet synopsis is the same cube as the baseline's.
		est, err := c2.Query(wire.Query{Kind: wire.QueryApproxCount, Channel: uint16(ch), T0: 1, T1: 17, Arg: 8})
		if err != nil {
			t.Fatal(err)
		}
		wantEst, wantBound, err := mirror.ApproximateCount(ch, 1, 17, 8)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(est.Value-wantEst) > 1e-9 || math.Abs(est.Bound-wantBound) > 1e-9 {
			t.Fatalf("ch %d approx count: recovered %v±%v, baseline %v±%v",
				ch, est.Value, est.Bound, wantEst, wantBound)
		}
	}
}
