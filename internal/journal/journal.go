// Package journal is the AIMS middle tier's durability layer. An
// immersidata session is irreplaceable — a CyberGlove signing session or a
// Virtual-Classroom run cannot be re-captured — yet the ingest path keeps
// it only in memory until the session seals. This package makes a live
// session crash-safe with two cooperating mechanisms:
//
//   - a per-session, append-only, CRC32C-framed, segmented write-ahead log
//     the server writes each acquisition batch to before it reaches
//     core.LiveStore.AppendEncoded — one record per batch, framed from the
//     batch's wire bytes without decoding them, the batches the session's
//     appender drained together sharing one durability step — with a
//     configurable fsync policy (per-group, interval-deferred, or off) and
//     size-based segment rotation; and
//   - periodic snapshots: the live store is sealed and serialised with
//     core.Store.WriteTo into a temp file, atomically renamed into place,
//     and the WAL is truncated up to the snapshot's frame watermark.
//
// On startup, Manager.Recover scans the data directory and rebuilds every
// session found there, one per session name: the newest intact snapshot is
// loaded through core.ReadStore and inverse-transformed back into a count
// cube (core.RestoreLiveStore), then the WAL tail past the watermark is
// replayed through the live ingest path: each record body is checked and
// its frames quantised straight out of the bytes (AppendEncoded). Torn
// tails, short reads and corrupt frames are detected by the per-record CRC
// and the log is truncated at the last valid record instead of failing
// recovery; replay carries on into the next segment only when its header
// proves no frame is missing in between (see replayWAL).
//
// Under disk backpressure a session degrades according to policy: block
// (the consumer stalls, the bounded ingest queue fills, and the device
// feels TCP backpressure — lossless) or shed durability (ingest continues
// un-journaled and the degradation is counted). A later successful
// snapshot restores durability by rotating onto a fresh segment at the new
// watermark.
package journal

import (
	"fmt"
	"io"
	"os"
	"time"
)

// FsyncPolicy selects when the WAL is flushed to stable storage.
type FsyncPolicy int

const (
	// FsyncBatch syncs once per appended group — the run of batches the
	// session's appender took off its queue in one turn, a single batch
	// when nothing else was waiting. A flush-acked frame is durable: a
	// Flush barrier ends the group it is taken with, and is released only
	// after that group's sync has returned. The safest and slowest policy.
	FsyncBatch FsyncPolicy = iota
	// FsyncInterval defers the sync to a timer (Config.FsyncInterval): a
	// crash loses at most the last interval's frames.
	FsyncInterval
	// FsyncOff never syncs explicitly; the OS page cache decides. A crash
	// of the process alone loses nothing (the kernel still holds the
	// writes); a machine crash loses the unflushed tail.
	FsyncOff
)

// ParseFsyncPolicy maps the flag spelling to a policy.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "batch":
		return FsyncBatch, nil
	case "interval":
		return FsyncInterval, nil
	case "off":
		return FsyncOff, nil
	}
	return 0, fmt.Errorf("journal: unknown fsync policy %q (want batch|interval|off)", s)
}

// String names the policy for logs.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncBatch:
		return "batch"
	case FsyncInterval:
		return "interval"
	case FsyncOff:
		return "off"
	}
	return fmt.Sprintf("fsync(%d)", int(p))
}

// DegradePolicy selects what happens when the WAL cannot accept writes
// (disk full, I/O errors, failed fsync).
type DegradePolicy int

const (
	// DegradeBlock retries the write, stalling the session's appender: the
	// bounded ingest queue fills and the device feels the backpressure.
	// Lossless, at the price of ingest latency.
	DegradeBlock DegradePolicy = iota
	// DegradeShed drops durability for the session but keeps ingesting:
	// frames continue into the live store un-journaled and the degradation
	// is reported through the Observer. A later successful snapshot
	// restores durability.
	DegradeShed
)

// ParseDegradePolicy maps the flag spelling to a policy.
func ParseDegradePolicy(s string) (DegradePolicy, error) {
	switch s {
	case "block":
		return DegradeBlock, nil
	case "shed":
		return DegradeShed, nil
	}
	return 0, fmt.Errorf("journal: unknown durability policy %q (want block|shed)", s)
}

// File is the subset of *os.File the WAL needs. The indirection exists so
// tests can inject fault-laden implementations (torn writes, failing
// fsync) underneath an otherwise untouched WAL.
type File interface {
	io.Writer
	io.Closer
	Sync() error
}

// Observer receives the journal's operational signals. Every field is
// optional; the middle tier wires them onto its metrics registry.
type Observer struct {
	// FsyncSeconds reports each fsync's wall time.
	FsyncSeconds func(seconds float64)
	// AppendBytes reports bytes framed onto the WAL (headers included).
	AppendBytes func(n int)
	// SnapshotSeconds reports each successful snapshot's wall time
	// (seal + serialise + rename + truncate).
	SnapshotSeconds func(seconds float64)
	// SnapshotError reports a failed snapshot attempt.
	SnapshotError func()
	// Degraded reports a session shedding durability.
	Degraded func()
	// Healed reports a degraded session restored by a snapshot.
	Healed func()
}

// Config shapes the durability layer.
type Config struct {
	// Dir is the data directory (one subdirectory per session). Empty
	// disables journaling entirely.
	Dir string
	// Fsync is the WAL flush policy (default FsyncBatch).
	Fsync FsyncPolicy
	// FsyncInterval is the deferred-sync period under FsyncInterval
	// (default 100 ms).
	FsyncInterval time.Duration
	// SegmentBytes rotates the WAL onto a new segment file once the
	// current one exceeds this size (default 8 MiB).
	SegmentBytes int64
	// SnapshotFrames snapshots a session every N processed frames
	// (default 65536; negative disables periodic snapshots — the final
	// snapshot at session close still runs).
	SnapshotFrames int
	// Degrade selects the disk-backpressure behaviour (default
	// DegradeBlock).
	Degrade DegradePolicy
	// OpenFile creates WAL segment files (default os.OpenFile with
	// O_CREATE|O_WRONLY|O_EXCL). Tests inject fault harnesses here.
	OpenFile func(path string) (File, error)
	// Observer receives operational signals; zero value discards them.
	Observer Observer
	// Logf receives recovery and degradation logs (nil discards).
	Logf func(format string, args ...interface{})
}

func (c Config) withDefaults() Config {
	if c.FsyncInterval <= 0 {
		c.FsyncInterval = 100 * time.Millisecond
	}
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = 8 << 20
	}
	if c.SnapshotFrames == 0 {
		c.SnapshotFrames = 65536
	}
	if c.OpenFile == nil {
		c.OpenFile = func(path string) (File, error) {
			return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
		}
	}
	if c.Logf == nil {
		c.Logf = func(string, ...interface{}) {}
	}
	return c
}
