// Package stream provides the continuous-data-stream plumbing of AIMS:
// frame sources, sliding windows that aggregate several sensor streams into
// the matrices the online analysis consumes (§3.4), and the double-buffered
// asynchronous acquisition pipeline from the paper's recording study
// (§3.1) — one producer answering the device clock, one consumer storing
// data, realised as goroutines.
package stream

import (
	"fmt"
	"sync"
	"time"

	"aims/internal/vec"
)

// Frame is one multi-sensor sample: all channel values at one clock tick.
type Frame struct {
	T      float64 // seconds since session start
	Values []float64
}

// Source yields frames in time order. Next reports ok=false when the
// stream ends.
type Source interface {
	Next() (Frame, bool)
}

// SliceSource replays a recorded frame sequence at a nominal rate.
type SliceSource struct {
	Rate   float64
	Frames [][]float64
	pos    int
}

// NewSliceSource wraps frames (time-major: frames[i] is tick i) recorded at
// the given rate.
func NewSliceSource(frames [][]float64, rate float64) *SliceSource {
	return &SliceSource{Rate: rate, Frames: frames}
}

// Next implements Source.
func (s *SliceSource) Next() (Frame, bool) {
	if s.pos >= len(s.Frames) {
		return Frame{}, false
	}
	f := Frame{T: float64(s.pos) / s.Rate, Values: s.Frames[s.pos]}
	s.pos++
	return f, true
}

// Reset rewinds the source to the beginning.
func (s *SliceSource) Reset() { s.pos = 0 }

// FuncSource adapts a frame-generating function (e.g. a live device) into a
// Source that produces n frames.
type FuncSource struct {
	Rate float64
	N    int
	Fn   func(i int) []float64
	pos  int
}

// Next implements Source.
func (s *FuncSource) Next() (Frame, bool) {
	if s.pos >= s.N {
		return Frame{}, false
	}
	f := Frame{T: float64(s.pos) / s.Rate, Values: s.Fn(s.pos)}
	s.pos++
	return f, true
}

// Window is a fixed-capacity sliding window over frames. It aggregates the
// most recent frames of all sensors into one matrix — the "tight
// aggregation" the paper argues online immersidata analysis needs.
type Window struct {
	cap   int
	buf   [][]float64
	start int
	size  int
}

// NewWindow returns a window holding up to capacity frames.
func NewWindow(capacity int) *Window {
	if capacity <= 0 {
		panic(fmt.Sprintf("stream: window capacity %d", capacity))
	}
	return &Window{cap: capacity, buf: make([][]float64, capacity)}
}

// Push appends a frame's values, evicting the oldest when full.
func (w *Window) Push(values []float64) {
	idx := (w.start + w.size) % w.cap
	if w.size == w.cap {
		w.buf[w.start] = values
		w.start = (w.start + 1) % w.cap
		return
	}
	w.buf[idx] = values
	w.size++
}

// Len returns the number of buffered frames.
func (w *Window) Len() int { return w.size }

// Full reports whether the window has reached capacity.
func (w *Window) Full() bool { return w.size == w.cap }

// Matrix materialises the window as a rows=time × cols=sensors matrix,
// oldest frame first.
func (w *Window) Matrix() *vec.Matrix {
	if w.size == 0 {
		return vec.NewMatrix(0, 0)
	}
	rows := make([][]float64, w.size)
	for i := 0; i < w.size; i++ {
		rows[i] = w.buf[(w.start+i)%w.cap]
	}
	return vec.MatrixFromRows(rows)
}

// Reset empties the window.
func (w *Window) Reset() { w.start, w.size = 0, 0 }

// AcquireStats reports what the acquisition pipeline did.
type AcquireStats struct {
	Produced int // frames delivered by the device
	Stored   int // frames persisted by the consumer
	Dropped  int // frames lost because both buffers were in flight
	Flushes  int // buffer handoffs
}

// Acquire runs the paper's double-buffering recording strategy: the
// producer (the "interrupt handler" thread) fills one buffer while the
// consumer (the "process and store" thread) drains the other; store is
// called with each full buffer. The source is pull-based, so the producer
// applies backpressure when both buffers are in flight — acquisition is
// lossless and Dropped is always 0 here. Use AcquireRealtime to model a
// fixed-rate device that cannot wait.
func Acquire(src Source, bufFrames int, store func(batch []Frame)) AcquireStats {
	return acquire(untimed(src), bufFrames, store, true)
}

// AcquireRealtime is Acquire for a device that produces on a hard clock:
// when the consumer still owns both buffers at flush time, incoming frames
// are dropped instead of stalling the device. The returned stats expose the
// loss, which experiment E11 uses to find the sustainable rate.
func AcquireRealtime(src Source, bufFrames int, store func(batch []Frame)) AcquireStats {
	return acquire(untimed(src), bufFrames, store, false)
}

// untimed adapts Source.Next to the loop's fetch: it never reports idle.
func untimed(src Source) func() (Frame, bool, bool) {
	return func() (Frame, bool, bool) {
		f, ok := src.Next()
		return f, ok, false
	}
}

// TimedSource is a Source that can bound its wait for the next frame —
// what a live network feed (as opposed to a replayed recording) looks
// like to the acquisition pipeline.
type TimedSource interface {
	Source
	// NextTimeout waits at most d for a frame: (frame, true, false) on
	// delivery, (_, false, true) when the wait timed out but the stream is
	// still open, and (_, false, false) at end of stream.
	NextTimeout(d time.Duration) (f Frame, ok bool, timedOut bool)
}

// AcquireFlushing runs the lossless double-buffered pipeline with bounded
// batching latency: when the source stays quiet for maxLatency while a
// partially filled buffer exists, that partial buffer is handed to the
// consumer instead of waiting to fill — so a live session's tail frames
// become queryable within maxLatency rather than at session end. The
// producer still applies backpressure when both buffers are in flight.
func AcquireFlushing(src TimedSource, bufFrames int, maxLatency time.Duration, store func(batch []Frame)) AcquireStats {
	if maxLatency <= 0 {
		maxLatency = 2 * time.Millisecond
	}
	next := func() (Frame, bool, bool) { return src.NextTimeout(maxLatency) }
	return acquire(next, bufFrames, store, true)
}

// acquire is the double-buffer loop behind all three entry points. next
// fetches the next frame the way TimedSource.NextTimeout reports it: ok
// false ends the stream unless idle is set, which means the source is open
// but quiet and a partially filled buffer is handed over rather than held.
// With block false, a frame that arrives while the consumer owns both
// buffers is dropped instead of waited for.
func acquire(next func() (f Frame, ok, idle bool), bufFrames int, store func(batch []Frame), block bool) AcquireStats {
	if bufFrames <= 0 {
		bufFrames = 256
	}
	var stats AcquireStats
	// Two buffers circulate between producer and consumer.
	free := make(chan []Frame, 2)
	full := make(chan []Frame, 2)
	free <- make([]Frame, 0, bufFrames)
	free <- make([]Frame, 0, bufFrames)

	var wg sync.WaitGroup
	var mu sync.Mutex // guards stats.Stored/Flushes from the consumer side
	wg.Add(1)
	go func() {
		defer wg.Done()
		for batch := range full {
			store(batch)
			mu.Lock()
			stats.Stored += len(batch)
			stats.Flushes++
			mu.Unlock()
			free <- batch[:0]
		}
	}()

	cur := <-free // nil while the consumer owns both buffers
	for {
		f, ok, idle := next()
		if idle {
			if len(cur) > 0 {
				full <- cur
				cur = nil
			}
			continue
		}
		if !ok {
			break
		}
		stats.Produced++
		if cur == nil {
			if block {
				cur = <-free
			} else {
				select {
				case cur = <-free:
				default:
					stats.Dropped++
					continue
				}
			}
		}
		cur = append(cur, f)
		if len(cur) == cap(cur) {
			full <- cur
			cur = nil
		}
	}
	if len(cur) > 0 {
		full <- cur
	}
	close(full)
	wg.Wait()
	return stats
}
