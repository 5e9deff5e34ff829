// Package journal is the AIMS middle tier's durability layer. An
// immersidata session is irreplaceable — a CyberGlove signing session or a
// Virtual-Classroom run cannot be re-captured — yet the ingest path keeps
// it only in memory until the session seals. This package makes a live
// session crash-safe with two cooperating mechanisms:
//
//   - a per-session, append-only, CRC32C-framed, segmented write-ahead log
//     the server writes each acquisition batch to before it reaches the
//     live store — one record per batch, holding the batch as the store
//     keeps it: its bins record (core.LiveStore.Bin: each frame's time
//     bucket and one value bin per channel, a byte each at up to 256 bins),
//     binned once and then stored from the same bytes
//     (core.LiveStore.AppendBins). The batches the session's appender
//     drained together share one fsync, taken before any of them reaches
//     the store; segments rotate by size; and
//   - periodic snapshots: the live store's count cube is encoded as it is
//     (core.LiveStore.AppendSnapshot — no seal, no wavelet engine) into a
//     temp file, atomically renamed into place, and the WAL is truncated
//     up to the snapshot's frame watermark. A Close whose final snapshot
//     covers every frame deletes the log.
//
// Manager.Scan lists the sessions on disk from their meta.json files alone;
// Manager.Load rebuilds one: the newest intact snapshot is decoded straight
// back into a count cube (core.ReadSnapshot), then the WAL tail past the
// watermark is replayed through the live ingest path: each bins record
// checked against the session's shape and stored by AppendBins, with no
// float arithmetic, into the cells it was first stored in. Torn tails,
// short reads and corrupt records — a CRC mismatch, or a body whose
// counts, buckets or bins do not fit the session — are detected and the
// log is truncated at the last valid record instead of failing recovery;
// replay carries on into the next segment only when its header proves no
// frame is missing in between (see replayWAL). A directory an older
// version wrote, whose snapshot is a sealed engine or whose log holds wire
// frames, is refused whole (ErrFormat): reading it needs that version.
//
// Under disk backpressure a session degrades according to policy: block
// (the consumer stalls, the bounded ingest queue fills, and the device
// feels TCP backpressure — lossless) or shed durability (ingest continues
// un-journaled and the degradation is counted). A later successful
// snapshot restores durability by rotating onto a fresh segment at the new
// watermark.
package journal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"aims/internal/obs"
)

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
	// is counted on Config.Degraded. A later successful snapshot
	// restores durability.
	DegradeShed
)

// ErrFormat is the error, wrapped, with which Manager.Load refuses a
// session directory holding a format this version does not read: a
// snapshot that is a sealed engine (AIMSSTO1), a WAL record of wire frames
// or an 8-byte ack record — what versions before snapshots became the
// count cube and records its bins wrote — or a WAL record of a type no
// version wrote. The wrapping error names the file and the format.
var ErrFormat = errors.New("a format this version does not read")

// formatError is ErrFormat for file, holding format.
func formatError(file, format string) error {
	return fmt.Errorf("journal: %s holds %s, %w", filepath.Base(file), format, ErrFormat)
}

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

// Config shapes the durability layer. Its instrument fields receive the
// journal's operational signals; a nil instrument discards them.
type Config struct {
	// Dir is the data directory (one subdirectory per session). Empty
	// disables journaling entirely.
	Dir string
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
	// OpenFile creates WAL segment files and snapshot temp files (default
	// os.OpenFile with O_CREATE|O_WRONLY|O_EXCL). Tests inject fault
	// harnesses here.
	OpenFile func(path string) (File, error)
	// FsyncSeconds observes each fsync's wall time.
	FsyncSeconds *obs.Histogram
	// WALBytes counts bytes framed onto the WAL (headers included).
	WALBytes *obs.Counter
	// SnapshotSeconds observes each successful snapshot's wall time
	// (encode the count cube + write + fsync + rename + truncate).
	SnapshotSeconds *obs.Histogram
	// SnapshotErrors counts failed snapshot attempts.
	SnapshotErrors *obs.Counter
	// Degraded counts sessions shedding durability.
	Degraded *obs.Counter
	// Healed counts degraded sessions restored by a snapshot.
	Healed *obs.Counter
	// Logf receives recovery and degradation logs (nil discards).
	Logf func(format string, args ...interface{})
}

func (c Config) withDefaults() Config {
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = 8 << 20
	}
	if c.SnapshotFrames == 0 {
		c.SnapshotFrames = 65536
	}
	if c.OpenFile == nil {
		c.OpenFile = createFile
	}
	if c.Logf == nil {
		c.Logf = func(string, ...interface{}) {}
	}
	return c
}

// createFile creates path for writing, failing if it exists.
func createFile(path string) (File, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
}
