package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"
	"unsafe"

	"aims/internal/compress"
	"aims/internal/propolyne"
	"aims/internal/stream"
	"aims/internal/wavelet"
)

// LiveStore is the middle tier's ingest-side store: the quantised
// (channel, time-bucket, value-bin) count cube of an in-progress session,
// kept in a form cheap enough to update per frame at device rate —
// O(channels) integer increments — while staying queryable.
//
// Every append path bins a frame once, through the store's Binner, into a
// bins record — its time bucket and one value bin per channel — and stores
// the record with AppendBins, which only counts cells. Binning reads
// nothing an append writes, so it runs outside the store's lock, and the
// middle tier journals the same record it stores.
//
// Exact COUNT/AVERAGE/VARIANCE range aggregates are answered from the
// count cube itself (the cube *is* the exact frequency distribution, so no
// transform is needed for exactness), through a per-row moment cache:
// each (channel, time-bucket) row keeps its integer Σbin and Σbin², its
// Σ1 is its bucket's fill, and a bucket's rows are rescanned together
// only after a frame lands in it.
//
// Approximate and progressive COUNTs run a ProPolyne plan, whose bases the
// §3.3.1 hybrid chooser (propolyne.ChooseBases) picks once per store from
// its geometry. Where it picks the standard basis on every axis — every
// channel count at the default 256 × 64 geometry — a plan's entries are
// flat offsets of the count cube itself, so the query walks the cube under
// the read lock, and the error bound's data energy Σc² is kept per time
// bucket beside the row moments, as an exact integer rescanned in the
// same pass. Such a store never seals, keeps no float cube and logs no
// delta. Where a wavelet axis is chosen (e.g. 512 time buckets, or 128
// value bins), the query goes through Seal, which materialises the cube as
// a wavelet-transformed ProPolyne Store. The sealed engine is cached and —
// because the wavelet transform of a point mass is sparse (§3.1.1) —
// brought up to date incrementally: appends since the last seal are
// recorded in a compact delta log of cell offsets and replayed through the
// engine's AppendOffsets, which also keeps the error bound's data energy
// current, so a seal costs O(delta), not O(cube). A full rebuild happens
// only on the first seal and when the delta log overflows its threshold.
// Seal stays callable on every store.
//
// Counts are stored at the narrowest width they need. A new store's cube
// has 4-bit cells, two to a byte, when a bucket spans at most 15 ticks,
// and 8-bit cells otherwise; the first frame that could push a cell past
// 15 widens the whole cube to 8 bits, past 255 to 16, and past 65 535 to
// 32. A store never narrows.
// The width follows fill[tb], the frames stored into time bucket tb: every
// frame adds one count to each channel's row of its bucket, so no cell of
// the bucket exceeds fill[tb].
//
// Concurrency: one RWMutex guards the cube and its width, the bucket
// fills, the delta log and the seal cache fields. An append takes the
// write lock for its whole batch, so a query never observes half a frame,
// and a widening copy happens under it too; exact scans and cube walks
// take the read lock and then rowMu, which guards the row cache and the
// bucket energies (lock order mu → rowMu). A query on a sealing store
// holds sealMu from its seal to its answer, so no other seal moves the
// engine under it (lock order sealMu → mu).
// Safe for one or more appenders and any number of concurrent readers.
type LiveStore struct {
	cfg   LiveStoreConfig
	quant []compress.Quantizer
	// binner bins every frame the store takes, built from quant by
	// newLiveStore and never written after.
	binner     Binner
	deltaLimit int // max delta-log entries; 0 disables incremental sealing

	mu sync.RWMutex
	// The channels × TimeBuckets × ValueBins count cube at its current
	// width: exactly one of c4, c8, c16 and c32 is non-nil.
	c4  nibbles
	c8  []uint8
	c16 []uint16
	c32 []uint32
	// fill counts, per time bucket, the frames stored into it. It is each
	// of the bucket's rows' Σ1, so the row cache need not keep one, and it
	// bounds every cell of the bucket, so storeBins widens the cube before a
	// frame takes it past fillMax.
	fill    []uint64
	fillMax uint64
	frames  int
	// delta logs the flat cube indices incremented since the last full
	// seal snapshot; track gates logging (it starts at the first seal so
	// an unqueried session never pays for it) and overflow marks a log
	// that outgrew deltaLimit and was dropped.
	delta    []uint32
	track    bool
	overflow bool

	rowMu sync.Mutex
	// rows caches channels × TimeBuckets row moments and energy, per time
	// bucket, Σc² over every channel's cells of the bucket; every row of
	// bucket tb and energy[tb] are current while rowFill[tb] equals
	// fill[tb], the fill they were all cached at. All three are made by the
	// first exact scan or cube walk, so a session nobody queries never pays
	// for them. energyTotal caches Σ energy at energyFrames stored frames.
	rows         []rowMoments
	rowFill      []uint64
	energy       []uint64
	energyTotal  uint64
	energyFrames int

	sealMu       sync.Mutex
	sealed       *Store
	sealedFrames int      // the frames the sealed engine holds
	spare        []uint32 // the last replayed log, recycled as the next one's buffer

	// rel is the store's geometry as a coefficient-less pure-relational
	// engine when the hybrid chooser picks the standard basis on every
	// axis: approximate and progressive queries compile through it and walk
	// the cube. nil when a wavelet axis is chosen; they then seal. Set by
	// newLiveStore and never written after.
	rel *propolyne.Engine
}

// LiveStoreConfig shapes a live session store.
type LiveStoreConfig struct {
	// Rate is the device clock in Hz (default 100).
	Rate float64
	// TimeBuckets and ValueBins must be powers of two (defaults 256, 64 —
	// smaller than the off-line Store defaults because a live store exists
	// per session).
	TimeBuckets int
	ValueBins   int
	// HorizonTicks is the expected session length in device ticks; frames
	// beyond it clamp into the final bucket (default 60 s of Rate).
	HorizonTicks int
	// MaxDegree is the highest polynomial degree the sealed engine must
	// answer (default 2).
	MaxDegree int
	// SealDeltaThreshold caps the delta log driving the incremental seal,
	// in per-channel cell increments. Past it the next Seal falls back to
	// a full rebuild (incremental replay would cost more than the
	// transform). 0 derives a default of cube-cells/16 (min 1024);
	// negative disables incremental sealing entirely, so every Seal after
	// an append rebuilds from scratch.
	SealDeltaThreshold int
	// SealObserver, when non-nil, receives every materialising Seal's wall
	// time, whether it took the incremental delta-replay path, and the
	// delta-log entries replayed (0 on rebuilds). Cache hits — a Seal with
	// no appends since the last — are not reported. The middle tier hooks
	// this into its stage-level metrics.
	SealObserver func(d time.Duration, incremental bool, deltaEntries int)
}

func (c LiveStoreConfig) withDefaults() LiveStoreConfig {
	if c.Rate <= 0 {
		c.Rate = 100
	}
	if c.TimeBuckets <= 0 {
		c.TimeBuckets = 256
	}
	if c.ValueBins <= 0 {
		c.ValueBins = 64
	}
	if c.HorizonTicks <= 0 {
		c.HorizonTicks = int(60 * c.Rate)
	}
	if c.MaxDegree <= 0 {
		c.MaxDegree = 2
	}
	return c
}

// NewLiveStore creates an empty live store for a session whose channel c
// produces values in [mins[c], maxs[c]] (the registration-time device
// spec). A value bins as compress.Quantize bins it: out-of-range values,
// ±Inf and NaN included, clamp into the edge bins — above the range into
// the top bin, below it and NaN into bin 0 — on every platform.
func NewLiveStore(mins, maxs []float64, cfg LiveStoreConfig) (*LiveStore, error) {
	quant, cfg, err := liveQuantizers(mins, maxs, cfg)
	if err != nil {
		return nil, err
	}
	return newLiveStore(quant, cfg, 0)
}

// liveQuantizers returns the quantisers a live store for the registration
// ranges mins, maxs bins through, and cfg with its defaults applied.
func liveQuantizers(mins, maxs []float64, cfg LiveStoreConfig) ([]compress.Quantizer, LiveStoreConfig, error) {
	if len(mins) == 0 || len(mins) != len(maxs) {
		return nil, cfg, fmt.Errorf("core: live store needs matching per-channel ranges, got %d/%d", len(mins), len(maxs))
	}
	cfg = cfg.withDefaults()
	for _, n := range []int{cfg.TimeBuckets, cfg.ValueBins} {
		if n&(n-1) != 0 {
			return nil, cfg, fmt.Errorf("core: live store dims must be powers of two, got %d", n)
		}
	}
	bits := log2(cfg.ValueBins)
	quant := make([]compress.Quantizer, len(mins))
	for c := range quant {
		quant[c] = compress.NewQuantizer(mins[c], maxs[c], bits)
	}
	return quant, cfg, nil
}

// newLiveStore creates an empty live store that bins channel c through
// quant[c], which it keeps, with its cube at the width a bucket of maxFill
// frames needs (cubeWidth). It is the one place a store's Binner is built,
// so the bin table always matches the quantisers: NewLiveStore passes the
// registration ranges' quantisers, ReadSnapshot the persisted ones. cfg's
// dims must be powers of two, and every quantiser must have cfg.ValueBins
// levels.
func newLiveStore(quant []compress.Quantizer, cfg LiveStoreConfig, maxFill uint64) (*LiveStore, error) {
	cfg = cfg.withDefaults()
	binner, err := newBinner(quant, cfg)
	if err != nil {
		return nil, err
	}
	cells := len(quant) * cfg.TimeBuckets * cfg.ValueBins
	ls := &LiveStore{
		cfg:    cfg,
		quant:  quant,
		binner: binner,
		fill:   make([]uint64, cfg.TimeBuckets),
	}
	dims, bases, err := ls.geometry()
	if err != nil {
		return nil, err
	}
	if !slices.ContainsFunc(bases, func(b propolyne.Basis) bool { return !b.Standard }) {
		ls.rel = propolyne.Relational(dims)
	}
	switch cubeWidth(ls.TicksPerBucket(), maxFill) {
	case 4:
		ls.c4, ls.fillMax = make(nibbles, (cells+1)/2), nibbleMax
	case 8:
		ls.c8, ls.fillMax = make([]uint8, cells), math.MaxUint8
	case 16:
		ls.c16, ls.fillMax = make([]uint16, cells), math.MaxUint16
	default:
		ls.c32, ls.fillMax = make([]uint32, cells), math.MaxUint64
	}
	switch {
	case cfg.SealDeltaThreshold > 0:
		ls.deltaLimit = cfg.SealDeltaThreshold
	case cfg.SealDeltaThreshold == 0:
		ls.deltaLimit = cells / 16
		if ls.deltaLimit < 1024 {
			ls.deltaLimit = 1024
		}
	default: // negative: incremental sealing disabled
		ls.deltaLimit = 0
	}
	return ls, nil
}

// Channels returns the channel count.
func (ls *LiveStore) Channels() int { return len(ls.quant) }

// Config returns the effective configuration.
func (ls *LiveStore) Config() LiveStoreConfig { return ls.cfg }

// TicksPerBucket returns the time-bucket width in device ticks.
func (ls *LiveStore) TicksPerBucket() int { return ls.binner.tpb }

// Frames returns how many frames have been appended.
func (ls *LiveStore) Frames() int {
	ls.mu.RLock()
	defer ls.mu.RUnlock()
	return ls.frames
}

// logDelta reports whether an append of n cube-cell increments is to log
// them for the incremental seal — decided once per append, not per
// increment. Past deltaLimit entries a replay would cost more than a
// transform, so an append that would outgrow it drops the log instead and
// the next Seal rebuilds. Callers hold ls.mu for writing.
func (ls *LiveStore) logDelta(n int) bool {
	if !ls.track || ls.overflow {
		return false
	}
	if len(ls.delta)+n > ls.deltaLimit {
		ls.overflow = true
		ls.delta = nil
		return false
	}
	return true
}

// count is the cell type of the count cube at each of its byte widths.
type count interface{ uint8 | uint16 | uint32 }

// nibbles is the count cube at 4 bits: cell i is the low nibble of byte
// i/2 when i is even and the high nibble when it is odd.
type nibbles []uint8

// nibbleMax is the largest count a 4-bit cell holds.
const nibbleMax = 1<<4 - 1

// at returns cell i.
func (p nibbles) at(i int) uint8 { return p[i>>1] >> (i & 1 * 4) & nibbleMax }

// unpack copies the first len(dst) cells of p into dst, as widen's copy to
// 8 bits or a seal's float snapshot.
func unpack[D count | float64](dst []D, p nibbles) {
	for i := range dst {
		dst[i] = D(p.at(i))
	}
}

// pack stores counts, each at most nibbleMax, into the zeroed cells of p.
func pack(p nibbles, counts []float64) {
	for i, v := range counts {
		p[i>>1] |= uint8(v) << (i & 1 * 4)
	}
}

// widen copies the cube into cells twice as wide, 4 → 8 → 16 → 32 bits.
// At 32 bits it stops: a cell then wraps only past 2^32−1 frames in one
// bucket. Callers hold ls.mu for writing.
func (ls *LiveStore) widen() {
	switch {
	case ls.c4 != nil:
		ls.c8 = make([]uint8, ls.cells())
		unpack(ls.c8, ls.c4)
		ls.c4, ls.fillMax = nil, math.MaxUint8
		return
	case ls.c8 != nil:
		ls.c16 = make([]uint16, len(ls.c8))
		convert(ls.c16, ls.c8)
		ls.c8, ls.fillMax = nil, math.MaxUint16
		return
	}
	ls.c32 = make([]uint32, len(ls.c16))
	convert(ls.c32, ls.c16)
	ls.c16, ls.fillMax = nil, math.MaxUint64
}

// cubeWidth returns the cell width, in bits, of a store with tpb ticks a
// bucket whose fullest bucket holds fill frames: the width appends widen
// the cube to. A bucket in the horizon holds at most one frame a tick, so
// the cube starts at 4 bits only when that fits (otherwise a nibble cube
// would widen within the first bucket), and at 8 bits otherwise; it
// doubles while fill passes the largest count a cell holds, up to 32.
func cubeWidth(tpb int, fill uint64) int {
	w := 8
	if tpb <= nibbleMax {
		w = 4
	}
	for w < 32 && fill > 1<<w-1 {
		w *= 2
	}
	return w
}

// width returns the cube's current cell width in bits. Callers hold ls.mu.
func (ls *LiveStore) width() int {
	switch {
	case ls.c4 != nil:
		return 4
	case ls.c8 != nil:
		return 8
	case ls.c16 != nil:
		return 16
	}
	return 32
}

// cells returns the number of cells in the count cube.
func (ls *LiveStore) cells() int {
	return len(ls.quant) * ls.cfg.TimeBuckets * ls.cfg.ValueBins
}

// convert copies src into dst value by value, as a widening copy of the
// cube, its float snapshot for a seal, or a restored cube's counts.
func convert[D, S count | float64](dst []D, src []S) {
	for i, v := range src {
		dst[i] = D(v)
	}
}

// binChunkBytes sizes the stack buffer AppendFrames bins through.
const binChunkBytes = 8 << 10

// AppendFrames ingests a batch of stream frames under a single write-lock
// acquisition, deriving each frame's tick from its timestamp and the
// device rate. Frames that fail validation — wrong width, a timestamp that
// is not finite, negative tick — are skipped rather than aborting the
// batch. It returns how many frames were stored; err reports the first
// skip reason and is nil when all landed.
func (ls *LiveStore) AppendFrames(frames []stream.Frame) (int, error) {
	// The frames are binned a chunk at a time into a stack buffer, so an
	// append neither allocates nor keeps a buffer.
	var buf [binChunkBytes]byte
	dst := buf[:0]
	chunk := (binChunkBytes - 4) / (8 + ls.binner.cellBytes())
	if chunk == 0 { // a frame wider than the buffer
		chunk, dst = 1, make([]byte, 0, ls.binner.BinsBytes(1))
	}
	stored := 0
	ls.mu.Lock()
	logging := ls.logDelta(len(frames) * len(ls.quant))
	for lo := 0; lo < len(frames); lo += chunk {
		bins, kept := ls.binner.BinFrames(frames[lo:min(lo+chunk, len(frames))], dst)
		ls.storeBins(bins, kept, logging)
		stored += kept
	}
	ls.mu.Unlock()
	if stored == len(frames) {
		return stored, nil
	}
	for i := range frames {
		if len(frames[i].Values) != len(ls.quant) {
			return stored, fmt.Errorf("core: frame width %d != %d channels", len(frames[i].Values), len(ls.quant))
		}
		if err := ls.checkTick(frames[i].T); err != nil {
			return stored, err
		}
	}
	return stored, nil
}

// checkTick returns the error a frame stamped t seconds is skipped with,
// nil when it is stored.
func (ls *LiveStore) checkTick(t float64) error {
	switch {
	case ls.binner.frameBucket(t) != skipBucket:
		return nil
	case math.IsNaN(t) || math.IsInf(t, 0):
		return fmt.Errorf("core: frame at %v s has no finite timestamp", t)
	}
	return fmt.Errorf("core: frame at %v s has a negative tick", t)
}

// Bin is the store's Binner.Bin: the bins record of body's encoded frames,
// appended to dst, as AppendBins stores it.
func (ls *LiveStore) Bin(body, dst []byte) ([]byte, int) { return ls.binner.Bin(body, dst) }

// Binner returns the Binner the store bins every frame through.
func (ls *LiveStore) Binner() *Binner { return &ls.binner }

// AppendBins stores a bins record (see Bin) under one write-lock
// acquisition: per stored frame, the widening its time bucket may need
// and one increment per channel, with no float arithmetic. It returns the
// frames stored. A record that does not check against the store's shape
// (Binner.CheckBins) is refused whole, before the lock is taken.
func (ls *LiveStore) AppendBins(rec []byte) (int, error) {
	frames, stored, err := ls.binner.CheckBins(rec)
	if err != nil {
		return 0, err
	}
	ls.mu.Lock()
	ls.storeBins(rec, stored, ls.logDelta(frames*len(ls.quant)))
	ls.mu.Unlock()
	return stored, nil
}

// storeBins counts a well-formed bins record of stored frames into the
// cube, a run at a time: per run, the frames its bucket takes before a
// cell could pass the cube's width are reserved at once and counted at
// that width, and the cube widens between them. Callers hold ls.mu for
// writing.
func (ls *LiveStore) storeBins(rec []byte, stored int, logging bool) {
	w, wide := ls.binner.cellBytes(), ls.binner.wide()
	cells := rec[len(rec)-stored*w:]
	for runs := rec[4 : len(rec)-len(cells)]; len(runs) > 0; runs = runs[8:] {
		if binary.LittleEndian.Uint32(runs) == skipBucket {
			continue
		}
		tb := int(binary.LittleEndian.Uint32(runs))
		for n := uint64(binary.LittleEndian.Uint32(runs[4:])); n > 0; {
			if ls.fill[tb] == ls.fillMax {
				ls.widen()
			}
			k := min(n, ls.fillMax-ls.fill[tb])
			ls.fill[tb] += k
			run := cells[:int(k)*w]
			cells = cells[len(run):]
			ls.countCells(tb, run, w, wide, logging)
			ls.frames += int(k)
			n -= k
		}
	}
}

// countCells counts the cells of frames in time bucket tb, w bytes a
// frame, into the cube at its current width, which they must fit, and logs
// their offsets when logging. Channel c's cell in time bucket tb sits at
// (c·TimeBuckets + tb)·ValueBins + bin, so a frame's cells start at
// tb·ValueBins and step one channel stride a cell. Callers hold ls.mu for
// writing.
func (ls *LiveStore) countCells(tb int, cells []byte, w int, wide, logging bool) {
	start, stride := tb*ls.cfg.ValueBins, ls.cfg.TimeBuckets*ls.cfg.ValueBins
	if logging {
		ls.delta = logCells(ls.delta, start, stride, cells, w, wide)
	}
	if wide {
		switch {
		case ls.c4 != nil:
			addWideNibbles(ls.c4, start, stride, cells, w)
		case ls.c8 != nil:
			addWide(ls.c8, start, stride, cells, w)
		case ls.c16 != nil:
			addWide(ls.c16, start, stride, cells, w)
		default:
			addWide(ls.c32, start, stride, cells, w)
		}
		return
	}
	switch {
	case ls.c4 != nil:
		addNibbles(ls.c4, start, stride, cells, w)
	case ls.c8 != nil:
		add(ls.c8, start, stride, cells, w)
	case ls.c16 != nil:
		add(ls.c16, start, stride, cells, w)
	default:
		add(ls.c32, start, stride, cells, w)
	}
}

// add is countCells's loop for one-byte cells at one cube width. It
// runs channel by channel: a channel's cells of one bucket share a row, so
// successive increments stay within a few cache lines, where a frame's
// cells, one row a channel stride apart, would alias one another in the
// store buffer.
func add[T count](cube []T, start, stride int, cells []byte, w int) {
	for c := 0; c < w; c++ {
		row := cube[start+c*stride:]
		for i := c; i < len(cells); i += w {
			row[cells[i]]++
		}
	}
}

// addWide is add for two-byte cells.
func addWide[T count](cube []T, start, stride int, cells []byte, w int) {
	for c := 0; c < w; c += 2 {
		row := cube[start+c/2*stride:]
		for i := c; i+1 < len(cells); i += w {
			row[binary.LittleEndian.Uint16(cells[i:])]++
		}
	}
}

// addNibbles is add on the 4-bit cube. storeBins has kept the bucket's
// fill, and so every cell of it, at or below nibbleMax, so an add never
// carries into the neighbouring cell.
func addNibbles(p nibbles, start, stride int, cells []byte, w int) {
	for c := 0; c < w; c++ {
		base := start + c*stride
		for i := c; i < len(cells); i += w {
			j := base + int(cells[i])
			p[j>>1] += 1 << (j & 1 * 4)
		}
	}
}

// addWideNibbles is addNibbles for two-byte cells.
func addWideNibbles(p nibbles, start, stride int, cells []byte, w int) {
	for c := 0; c < w; c += 2 {
		base := start + c/2*stride
		for i := c; i+1 < len(cells); i += w {
			j := base + int(binary.LittleEndian.Uint16(cells[i:]))
			p[j>>1] += 1 << (j & 1 * 4)
		}
	}
}

// logCells appends the cube offsets countCells increments to log, in the
// order it increments them.
func logCells(log []uint32, start, stride int, cells []byte, w int, wide bool) []uint32 {
	for ; len(cells) >= w; cells = cells[w:] {
		base := start
		for i := 0; i < w; i++ {
			bin := int(cells[i])
			if wide {
				bin |= int(cells[i+1]) << 8
				i++
			}
			log = append(log, uint32(base+bin))
			base += stride
		}
	}
	return log
}

// Footprint is the memory a LiveStore holds, in bytes, part by part.
type Footprint struct {
	Cube   int64 `json:"cube"`   // the count cube at its current width
	Rows   int64 `json:"rows"`   // the row-moment cache and the bucket energies
	Engine int64 `json:"engine"` // the sealed engine's coefficients
	Delta  int64 `json:"delta"`  // the incremental seal's delta log and its spare
}

// Footprint reports the memory the store holds now.
func (ls *LiveStore) Footprint() Footprint {
	ls.mu.RLock()
	defer ls.mu.RUnlock()
	f := Footprint{
		Cube:  int64(len(ls.c4) + len(ls.c8) + 2*len(ls.c16) + 4*len(ls.c32)),
		Delta: 4 * int64(cap(ls.delta)+cap(ls.spare)),
	}
	if ls.sealed != nil {
		f.Engine = 8 * int64(len(ls.sealed.Engine.Coeffs))
	}
	ls.rowMu.Lock()
	f.Rows = int64(unsafe.Sizeof(rowMoments{}))*int64(len(ls.rows)) + 8*int64(len(ls.rowFill)+len(ls.energy))
	ls.rowMu.Unlock()
	return f
}

// timeRange converts seconds to clamped bucket indices.
func (ls *LiveStore) timeRange(t0, t1 float64) (int, int) {
	return bucketRange(t0, t1, ls.cfg.Rate, ls.TicksPerBucket(), ls.cfg.TimeBuckets)
}

func (ls *LiveStore) checkChannel(channel int) error {
	if channel < 0 || channel >= len(ls.quant) {
		return fmt.Errorf("core: channel %d out of [0,%d)", channel, len(ls.quant))
	}
	return nil
}

// rowMoments caches one (channel, time-bucket) row's bin moments Σbin
// and Σbin² as integers. The row's Σ1 is its bucket's fill, so it is not
// kept; the row is current while its bucket's rowFill equals fill, and a
// zero row is the current row of an empty bucket.
type rowMoments struct {
	sum, sumSq uint64
}

// moments returns Σ1, Σbin, Σbin² of one channel over a time range —
// enough for COUNT, AVERAGE and VARIANCE — and the frame count they cover.
// It sums the window's cached rows and bucket fills. A bucket a frame has
// landed in since its rows were cached has every channel's row rescanned,
// channels × ValueBins cells, so one scan brings the bucket current for
// all of them.
// The sums are integers, converted to float64 once; every one stays below
// 2^53, so they equal a float fold over the cube cells bit for bit.
func (ls *LiveStore) moments(channel int, t0, t1 float64) (n, sum, sumSq float64, frames uint64, err error) {
	if err := ls.checkChannel(channel); err != nil {
		return 0, 0, 0, 0, err
	}
	lo, hi := ls.timeRange(t0, t1)
	base := channel * ls.cfg.TimeBuckets
	var in, isum, isq uint64
	ls.mu.RLock()
	ls.rowMu.Lock()
	ls.makeRows()
	fill, rowFill := ls.fill[lo:hi+1], ls.rowFill[lo:hi+1]
	rows := ls.rows[base+lo : base+hi+1]
	for i := range rows {
		if rowFill[i] != fill[i] {
			ls.fillBucket(lo + i)
		}
		in += fill[i]
		isum += rows[i].sum
		isq += rows[i].sumSq
	}
	ls.rowMu.Unlock()
	frames = uint64(ls.frames)
	ls.mu.RUnlock()
	return float64(in), float64(isum), float64(isq), frames, nil
}

// makeRows makes the row cache and the bucket energies on first use.
// Callers hold ls.mu for reading and ls.rowMu.
func (ls *LiveStore) makeRows() {
	if ls.rows == nil {
		ls.rows = make([]rowMoments, len(ls.quant)*ls.cfg.TimeBuckets)
		ls.rowFill = make([]uint64, ls.cfg.TimeBuckets)
		ls.energy = make([]uint64, ls.cfg.TimeBuckets)
	}
}

// fillBucket recomputes every channel's row of time bucket tb and the
// bucket's energy from the cube, in one pass, and marks the bucket
// current. Callers hold ls.mu for reading and ls.rowMu.
func (ls *LiveStore) fillBucket(tb int) {
	var sq uint64
	for row := tb; row < len(ls.rows); row += ls.cfg.TimeBuckets {
		sq += ls.fillRow(&ls.rows[row], row)
	}
	ls.energy[tb] = sq
	ls.rowFill[tb] = ls.fill[tb]
}

// fillRow recomputes r from cube row `row` and returns the row's Σc².
// Callers hold ls.mu for reading and ls.rowMu.
func (ls *LiveStore) fillRow(r *rowMoments, row int) (sq uint64) {
	lo, hi := row*ls.cfg.ValueBins, (row+1)*ls.cfg.ValueBins
	switch {
	case ls.c4 != nil:
		*r = rowMoments{}
		for i := lo; i < hi; i++ {
			c := uint64(ls.c4.at(i))
			r.add(i-lo, c)
			sq += c * c
		}
	case ls.c8 != nil:
		*r, sq = momentsOf(ls.c8[lo:hi])
	case ls.c16 != nil:
		*r, sq = momentsOf(ls.c16[lo:hi])
	default:
		*r, sq = momentsOf(ls.c32[lo:hi])
	}
	return sq
}

// dataEnergy returns Σc² over the whole cube, the data energy of a cube
// walk's error bound: the sum of the bucket energies, each brought current
// as moments brings its rows. The sum is cached by frame count, so an
// unchanged store pays O(1). It is exact while it stays below 2^64: it is
// at most channels · frames², so while frames < 2^32/√channels. Callers
// hold ls.mu for reading.
func (ls *LiveStore) dataEnergy() uint64 {
	ls.rowMu.Lock()
	defer ls.rowMu.Unlock()
	if ls.energyFrames == ls.frames {
		return ls.energyTotal // an empty store's energy is 0 at 0 frames
	}
	ls.makeRows()
	var total uint64
	for tb := range ls.fill {
		if ls.rowFill[tb] != ls.fill[tb] {
			ls.fillBucket(tb)
		}
		total += ls.energy[tb]
	}
	ls.energyTotal, ls.energyFrames = total, ls.frames
	return total
}

// momentsOf sums one row's value-bin counts into its moments, and their
// squares into sq.
func momentsOf[T count](row []T) (r rowMoments, sq uint64) {
	for bin, cnt := range row {
		c := uint64(cnt)
		r.add(bin, c)
		sq += c * c
	}
	return r, sq
}

// add counts cnt samples of value bin `bin` into r.
func (r *rowMoments) add(bin int, cnt uint64) {
	b := uint64(bin)
	r.sum += cnt * b
	r.sumSq += cnt * b * b
}

// CountSamples returns exactly how many samples channel recorded in
// [t0, t1] seconds.
func (ls *LiveStore) CountSamples(channel int, t0, t1 float64) (float64, error) {
	n, _, _, _, err := ls.moments(channel, t0, t1)
	return n, err
}

// AverageValue returns the exact mean sensor value of a channel over
// [t0, t1] seconds, decoded through the channel's quantiser. ok=false on
// an empty range.
func (ls *LiveStore) AverageValue(channel int, t0, t1 float64) (float64, bool, error) {
	n, sum, _, _, err := ls.moments(channel, t0, t1)
	if err != nil || n == 0 {
		return 0, false, err
	}
	q := ls.quant[channel]
	return q.Min + sum/n*q.Step(), true, nil
}

// VarianceValue returns the exact population variance of a channel's value
// over [t0, t1] seconds, in value units.
func (ls *LiveStore) VarianceValue(channel int, t0, t1 float64) (float64, bool, error) {
	n, sum, sumSq, _, err := ls.moments(channel, t0, t1)
	if err != nil || n == 0 {
		return 0, false, err
	}
	mean := sum / n
	step := ls.quant[channel].Step()
	return (sumSq/n - mean*mean) * step * step, true, nil
}

// Seal materialises the count cube as a full wavelet-transformed ProPolyne
// Store (the paper's off-line query subsystem) in the bases the hybrid
// chooser picks for the store's geometry. Approximate and progressive
// queries seal only where a wavelet axis is chosen; the cube walk answers
// them elsewhere, bit for bit as a sealed engine would. The sealed store
// is cached; when appends have advanced the frame count, Seal replays the
// delta log through the engine's offset append — O(delta since last seal),
// energy included — instead of retransforming the cube, falling back to a
// full rebuild on the first seal, after a delta-log overflow, or when
// incremental sealing is disabled. Because the cached engine is updated in
// place, a *Store returned by an earlier Seal observes later seals' data
// too (its engine lock keeps each batch atomic). Appends are paused only
// for the brief cube snapshot / log hand-off; transform and replay run
// outside the cube lock.
func (ls *LiveStore) Seal() (*Store, error) {
	ls.sealMu.Lock()
	defer ls.sealMu.Unlock()
	st, _, err := ls.seal()
	return st, err
}

// seal is Seal, and also returns the frames the sealed engine holds.
// Callers hold sealMu.
func (ls *LiveStore) seal() (*Store, uint64, error) {
	t0 := time.Now()
	ls.mu.Lock()
	frames := ls.frames
	if ls.sealed != nil && ls.sealedFrames == frames {
		st := ls.sealed
		ls.mu.Unlock()
		return st, uint64(frames), nil
	}
	if ls.sealed != nil && ls.track && !ls.overflow {
		// Incremental path: steal the delta log; appends from here on
		// accumulate the next seal's log in the buffer the last one left.
		log := ls.delta
		ls.delta, ls.spare = ls.spare[:0], log
		ls.mu.Unlock()
		if err := ls.replayDelta(log); err != nil {
			ls.mu.Lock()
			ls.overflow = true // engine state unknown: force a rebuild next
			ls.mu.Unlock()
			return nil, 0, err
		}
		ls.mu.Lock()
		ls.sealedFrames = frames
		st := ls.sealed
		ls.mu.Unlock()
		if ls.cfg.SealObserver != nil {
			ls.cfg.SealObserver(time.Since(t0), true, len(log))
		}
		return st, uint64(frames), nil
	}
	// Full rebuild: snapshot the cube and restart delta tracking from the
	// snapshot point. The engine transforms the snapshot in place and keeps
	// it, so a cold seal allocates one float cube.
	dims, bases, err := ls.geometry()
	if err != nil {
		ls.mu.Unlock()
		return nil, 0, err
	}
	cube := make([]float64, dims[0]*dims[1]*dims[2])
	switch {
	case ls.c4 != nil:
		unpack(cube[:ls.cells()], ls.c4)
	case ls.c8 != nil:
		convert(cube, ls.c8)
	case ls.c16 != nil:
		convert(cube, ls.c16)
	default:
		convert(cube, ls.c32)
	}
	if ls.deltaLimit > 0 {
		ls.track = true
		ls.overflow = false
		ls.delta = ls.delta[:0]
	}
	ls.mu.Unlock()

	eng, err := propolyne.NewWithBases(cube, dims, bases)
	if err != nil {
		return nil, 0, err
	}
	st := &Store{
		Engine:         eng,
		Channels:       len(ls.quant),
		TimeBuckets:    ls.cfg.TimeBuckets,
		ValueBins:      ls.cfg.ValueBins,
		TicksPerBucket: ls.TicksPerBucket(),
		Rate:           ls.cfg.Rate,
		quant:          append([]compress.Quantizer(nil), ls.quant...),
	}
	ls.mu.Lock()
	ls.sealed = st
	ls.sealedFrames = frames
	ls.mu.Unlock()
	if ls.cfg.SealObserver != nil {
		ls.cfg.SealObserver(time.Since(t0), false, 0)
	}
	return st, uint64(frames), nil
}

// geometry returns the dims of the store's ProPolyne cube — channels padded
// to a power of two, time buckets, value bins — and the bases the hybrid
// chooser picks for them: a query spans one channel, a quarter of the
// time axis and every value bin, at polynomial degree up to MaxDegree.
// Padding channels adds cells only past the cube's end, because channel is
// the leading axis, so the count cube's flat offsets are the engine's.
func (ls *LiveStore) geometry() ([]int, []propolyne.Basis, error) {
	chDim := nextPow2(len(ls.quant))
	dims := []int{chDim, ls.cfg.TimeBuckets, ls.cfg.ValueBins}
	bases, err := propolyne.ChooseBases(dims, propolyne.QueryTemplate{
		RangeFraction: []float64{1 / float64(chDim), 0.25, 1},
		MaxDegree:     ls.cfg.MaxDegree,
	}, propolyne.DefaultCostModel)
	return dims, bases, err
}

// replayDelta applies the logged cube-cell increments to the cached sealed
// engine as one batched sparse append. The log's cube offsets are the
// engine's own (see geometry). Callers hold sealMu, which is what protects
// ls.sealed here.
func (ls *LiveStore) replayDelta(log []uint32) error {
	return ls.sealed.Engine.AppendOffsets(log)
}

// QueryTrace reports what one traced store evaluation cost, layer by
// layer: the seal that brought the transformed engine up to date (zero on
// a store whose queries walk the count cube, which never seals), whether
// a plan ran (exact scans never compile one), and the plan provenance from
// propolyne, whose EvalNS on a cube walk also covers bringing the data
// energy current. The middle tier reconstructs trace spans from these
// durations, so core never imports the obs package.
type QueryTrace struct {
	SealNS   int64
	PlanUsed bool
	Plan     propolyne.PlanTrace
}

// ApproximateCount returns a budget-limited estimate of CountSamples with
// its guaranteed error bound.
func (ls *LiveStore) ApproximateCount(channel int, t0, t1 float64, budget int) (est, bound float64, err error) {
	est, bound, _, err = ls.ApproximateCountTraced(channel, t0, t1, budget, nil)
	return est, bound, err
}

// ApproximateCountTraced is ApproximateCount with per-call provenance
// recorded into a non-nil qt (seal time, plan outcome), and the frames the
// estimate covers (see onCube and onSealed).
func (ls *LiveStore) ApproximateCountTraced(channel int, t0, t1 float64, budget int, qt *QueryTrace) (est, bound float64, frames uint64, err error) {
	begin := qt.now()
	q, err := ls.countQuery(channel, t0, t1, qt)
	if err != nil {
		return 0, 0, 0, err
	}
	if ls.rel == nil {
		frames, err = ls.onSealed(qt, func(e *propolyne.Engine) (err error) {
			est, bound, err = e.EstimateWithBudget(q, budget)
			return err
		})
		return est, bound, frames, err
	}
	frames, err = ls.onCube(q, qt, begin, func(entries []wavelet.Entry, suffix []float64, energy float64) {
		est, bound = propolyne.Estimate(entries, suffix, budget, ls.cell, energy)
	})
	return est, bound, frames, err
}

// ProgressiveCount evaluates CountSamples progressively: at most maxSteps
// checkpoints of (estimate, guaranteed bound), the last one exact, and the
// frames they cover (see onCube and onSealed). A non-nil qt records the
// evaluation's provenance.
func (ls *LiveStore) ProgressiveCount(channel int, t0, t1 float64, maxSteps int, qt *QueryTrace) (steps []propolyne.Step, frames uint64, err error) {
	begin := qt.now()
	q, err := ls.countQuery(channel, t0, t1, qt)
	if err != nil {
		return nil, 0, err
	}
	if ls.rel == nil {
		frames, err = ls.onSealed(qt, func(e *propolyne.Engine) (err error) {
			steps, _, err = e.Progressive(q, maxSteps)
			return err
		})
		return steps, frames, err
	}
	frames, err = ls.onCube(q, qt, begin, func(entries []wavelet.Entry, suffix []float64, energy float64) {
		steps = propolyne.Steps(entries, suffix, maxSteps, ls.cell, energy)
	})
	return steps, frames, err
}

// onCube runs walk over the progressive order of q's plan, compiled
// through the store's relational geometry and ordered before the lock is
// taken, and the cube's data energy, in one read-lock hold, and returns
// the frames the cube held then. walk reads the cube through ls.cell. A
// non-nil qt records the plan's provenance: its LookupNS runs from begin,
// when the caller started building q, to the plan in hand, and its EvalNS
// covers the ordering, the energy and the walk, so the two time the whole
// query.
func (ls *LiveStore) onCube(q propolyne.Query, qt *QueryTrace, begin time.Time, walk func(entries []wavelet.Entry, suffix []float64, energy float64)) (uint64, error) {
	p, err := propolyne.SharedCache.Lookup(ls.rel, q)
	if err != nil {
		return 0, err
	}
	if qt != nil {
		now := time.Now()
		qt.Plan.LookupNS, begin = now.Sub(begin).Nanoseconds(), now
	}
	entries, suffix := p.Ordered()
	ls.mu.RLock()
	walk(entries, suffix, float64(ls.dataEnergy()))
	frames := uint64(ls.frames)
	ls.mu.RUnlock()
	if qt != nil {
		qt.Plan.EvalNS = time.Since(begin).Nanoseconds()
	}
	return frames, nil
}

// onSealed seals the store and runs eval on the sealed engine, holding
// sealMu throughout so no other seal moves the engine past the frames it
// returns, the frames the seal covered. A non-nil qt records the seal's
// time.
func (ls *LiveStore) onSealed(qt *QueryTrace, eval func(e *propolyne.Engine) error) (uint64, error) {
	ls.sealMu.Lock()
	defer ls.sealMu.Unlock()
	begin := time.Now()
	st, frames, err := ls.seal()
	if qt != nil {
		qt.SealNS = time.Since(begin).Nanoseconds()
	}
	if err != nil {
		return 0, err
	}
	return frames, eval(st.Engine)
}

// now returns the time on a traced call (non-nil qt) and the zero time
// otherwise, so an untraced query reads no clock.
func (qt *QueryTrace) now() time.Time {
	if qt == nil {
		return time.Time{}
	}
	return time.Now()
}

// cell returns count cube cell i. Callers hold ls.mu for reading.
func (ls *LiveStore) cell(i int) float64 {
	switch {
	case ls.c8 != nil:
		return float64(ls.c8[i])
	case ls.c4 != nil:
		return float64(ls.c4.at(i))
	case ls.c16 != nil:
		return float64(ls.c16[i])
	}
	return float64(ls.c32[i])
}

// countQuery builds the COUNT query over channel's [t0, t1] box — the box
// the sealed Store's queries take — with the plan trace riding in it when
// qt is non-nil.
func (ls *LiveStore) countQuery(channel int, t0, t1 float64, qt *QueryTrace) (propolyne.Query, error) {
	if err := ls.checkChannel(channel); err != nil {
		return propolyne.Query{}, err
	}
	lo, hi := ls.timeRange(t0, t1)
	box := []int{channel, lo, 0, channel, hi, ls.cfg.ValueBins - 1}
	q := propolyne.Query{Lo: box[:3:3], Hi: box[3:]}
	if qt != nil {
		qt.PlanUsed = true
		q.Trace = &qt.Plan
	}
	return q, nil
}

// BoxVolume returns the number of cube cells a [t0, t1] range query over
// channel spans — time buckets × value bins, what an exact scan reads when
// every row of the window is cold. Stamped into slow-query records for
// quick "why was this slow".
func (ls *LiveStore) BoxVolume(channel int, t0, t1 float64) (int64, error) {
	if err := ls.checkChannel(channel); err != nil {
		return 0, err
	}
	lo, hi := ls.timeRange(t0, t1)
	return int64(hi-lo+1) * int64(ls.cfg.ValueBins), nil
}
