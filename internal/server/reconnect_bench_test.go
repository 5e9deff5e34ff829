package server

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"aims/internal/core"
	"aims/internal/journal"
	"aims/internal/stream"
	"aims/internal/wire"
)

// BenchmarkDurableReconnect times one visit of a device that comes and
// goes on a durable server: a Hello that resumes its session, perVisit
// frames and a Flush, then the exit. The session has a 28-channel glove's
// shape at the server's default store geometry and journal settings, and
// holds 100 000 frames before the first visit. A "drop" visit ends with a
// dropped link and lasts until the session is parked again; a "takeover"
// visit ends with the next visit's Hello taking the session over.
//
//	go test ./internal/server -run '^$' -bench DurableReconnect -benchtime 200x
func BenchmarkDurableReconnect(b *testing.B) {
	for _, exit := range []string{"drop", "takeover"} {
		for _, perVisit := range []int{0, 256} {
			b.Run(fmt.Sprintf("%s/frames=%d", exit, perVisit), func(b *testing.B) {
				benchReconnect(b, exit == "takeover", perVisit)
			})
		}
	}
}

func benchReconnect(b *testing.B, takeover bool, perVisit int) {
	const channels, prefill = 28, 100_000
	srv := New(Config{
		Store:   core.LiveStoreConfig{TimeBuckets: 256, ValueBins: 64},
		Journal: journal.Config{Dir: b.TempDir()},
	})
	addrs, err := srv.Start("tcp://127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	addr := addrs.String()
	mins, maxs := ranges(channels)
	h := wire.Hello{Rate: 100, HorizonTicks: 1 << 26, Name: "glove", Mins: mins, Maxs: maxs}
	batch := func(start uint64, n int) []stream.Frame {
		out := make([]stream.Frame, n)
		for i := range out {
			vals := make([]float64, channels)
			for c := range vals {
				vals[c] = math.Sin(float64(start+uint64(i))*0.1+float64(c)) * 5
			}
			out[i] = stream.Frame{T: float64(start+uint64(i)) / 100, Values: vals}
		}
		return out
	}
	visit := func(want wire.Code, frames int) *wire.Client {
		c, err := wire.Dial(addr)
		if err != nil {
			b.Fatal(err)
		}
		c.Timeout = 10 * time.Second
		w, err := c.Hello(h)
		if err != nil || w.Code != want {
			b.Fatalf("welcome code=%v ack=%d err=%v, want %v", w.Code, w.AckSeq, err, want)
		}
		for sent := 0; sent < frames; sent += 256 {
			if err := c.SendBatch(batch(c.NextSeq(), min(256, frames-sent))); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := c.Flush(); err != nil {
			b.Fatal(err)
		}
		return c
	}
	parked := func() {
		for parkedCount(srv) != 1 {
			time.Sleep(50 * time.Microsecond)
		}
	}

	c := visit(wire.CodeOK, prefill)
	c.Abort()
	parked()
	if takeover {
		c = visit(wire.CodeResumed, 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next := visit(wire.CodeResumed, perVisit)
		if takeover {
			c.Abort() // the takeover closed the server's end
			c = next
			continue
		}
		next.Abort()
		parked()
	}
	b.StopTimer()
	c.Abort()
}
