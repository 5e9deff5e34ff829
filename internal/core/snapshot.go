package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"aims/internal/compress"
)

// Snapshot encoding: the durable form of a live session is its count cube
// itself (§3.1: the quantised (channel, time-bucket, value-bin) counts are
// the session's data; the ProPolyne engine is derived from them), so
// writing one needs no seal and reading one needs no inverse transform.
// In little-endian byte order:
//
//	magic "AIMSLIV1"
//	channels u32 | buckets u32 | bins u32 | ticks per bucket u32 | rate f64
//	channels × { min f64 | max f64 | bits u32 }   (the quantisers)
//	width u32                                     (cell bits: 4, 8, 16 or 32)
//	buckets × fill u64                            (frames per time bucket)
//	channels × { every bucket with fill > 0: one row of bins cells }
//
// A row holds its cells at the cube's width, 4-bit rows packed two cells
// to a byte as the cube keeps them. An empty bucket's rows are all zero,
// so they are left out.

var snapshotMagic = [8]byte{'A', 'I', 'M', 'S', 'L', 'I', 'V', '1'}

const (
	snapshotHeaderBytes = 8 + 4*4 + 8 // magic, channels, buckets, bins, ticks per bucket, rate
	snapshotQuantBytes  = 8 + 8 + 4   // min, max, bits
	// snapshotMaxCells bounds the cube a snapshot header can describe: the
	// limit propolyne.ReadEngine puts on a sealed store's (power-of-two
	// padded) cube, so both readers accept the same shapes.
	snapshotMaxCells = 1 << 28
)

// AppendSnapshot appends the store's snapshot encoding to dst, grown once
// to the encoding's size, and returns the extended buffer. It holds the
// read lock while it copies, so the encoding is one consistent cube.
func (ls *LiveStore) AppendSnapshot(dst []byte) []byte {
	ls.mu.RLock()
	defer ls.mu.RUnlock()
	tb, vb := ls.cfg.TimeBuckets, ls.cfg.ValueBins
	width := ls.width()
	filled := 0
	for _, f := range ls.fill {
		if f > 0 {
			filled++
		}
	}
	rowBytes := vb * width / 8
	dst = slices.Grow(dst, snapshotHeaderBytes+snapshotQuantBytes*len(ls.quant)+4+8*tb+len(ls.quant)*filled*rowBytes)

	le := binary.LittleEndian
	dst = append(dst, snapshotMagic[:]...)
	dst = le.AppendUint32(dst, uint32(len(ls.quant)))
	dst = le.AppendUint32(dst, uint32(tb))
	dst = le.AppendUint32(dst, uint32(vb))
	dst = le.AppendUint32(dst, uint32(ls.TicksPerBucket()))
	dst = le.AppendUint64(dst, math.Float64bits(ls.cfg.Rate))
	for _, q := range ls.quant {
		dst = le.AppendUint64(dst, math.Float64bits(q.Min))
		dst = le.AppendUint64(dst, math.Float64bits(q.Max))
		dst = le.AppendUint32(dst, uint32(q.Bits))
	}
	dst = le.AppendUint32(dst, uint32(width))
	for _, f := range ls.fill {
		dst = le.AppendUint64(dst, f)
	}
	for c := range ls.quant {
		for b, f := range ls.fill {
			if f == 0 {
				continue
			}
			lo := (c*tb + b) * vb
			switch {
			case ls.c4 != nil:
				dst = append(dst, ls.c4[lo/2:(lo+vb)/2]...)
			case ls.c8 != nil:
				dst = append(dst, ls.c8[lo:lo+vb]...)
			case ls.c16 != nil:
				for _, v := range ls.c16[lo : lo+vb] {
					dst = le.AppendUint16(dst, v)
				}
			default:
				for _, v := range ls.c32[lo : lo+vb] {
					dst = le.AppendUint32(dst, v)
				}
			}
		}
	}
	return dst
}

// ReadSnapshot decodes a store encoded by AppendSnapshot. cfg supplies the
// non-shape knobs (seal threshold, observer, max degree); the shape and
// the quantisers come from b. It allocates nothing until the whole input
// has checked out: a plausible header (the limits ReadStore applies, and
// every quantiser with bins levels), exactly the bytes the header and the
// fill table call for, every row summing to its bucket's fill, and the
// width appends would have widened the cube to — the narrowest that holds
// the fullest bucket, from a 4-bit start when a bucket spans at most 15
// ticks. So a damaged snapshot is refused rather than resurrected, and an
// accepted one re-encodes to the same bytes.
func ReadSnapshot(b []byte, cfg LiveStoreConfig) (*LiveStore, error) {
	le := binary.LittleEndian
	if len(b) < snapshotHeaderBytes {
		return nil, fmt.Errorf("core: snapshot of %d bytes is shorter than its header", len(b))
	}
	if [8]byte(b[:8]) != snapshotMagic {
		return nil, fmt.Errorf("core: bad snapshot magic %q", b[:8])
	}
	channels, buckets, bins, tpb := le.Uint32(b[8:]), le.Uint32(b[12:]), le.Uint32(b[16:]), le.Uint32(b[20:])
	rate := math.Float64frombits(le.Uint64(b[24:]))
	switch {
	case channels == 0 || channels > 4096:
		return nil, fmt.Errorf("core: implausible channel count %d", channels)
	case buckets == 0 || buckets > 1<<24 || buckets&(buckets-1) != 0:
		return nil, fmt.Errorf("core: implausible time buckets %d", buckets)
	case bins == 0 || bins > 1<<16 || bins&(bins-1) != 0:
		return nil, fmt.Errorf("core: implausible value bins %d", bins)
	case tpb == 0 || tpb > 1<<30 || uint64(tpb)*uint64(buckets) > math.MaxInt:
		return nil, fmt.Errorf("core: implausible ticks per bucket %d", tpb)
	case !(rate > 0) || math.IsInf(rate, 0) || rate > 1e9:
		return nil, fmt.Errorf("core: implausible rate %v", rate)
	case uint64(nextPow2(int(channels)))*uint64(buckets)*uint64(bins) > snapshotMaxCells:
		return nil, fmt.Errorf("core: snapshot cube %d×%d×%d exceeds %d cells", channels, buckets, bins, snapshotMaxCells)
	}
	nc, tb, vb := int(channels), int(buckets), int(bins)
	quantAt := snapshotHeaderBytes
	fillAt := quantAt + snapshotQuantBytes*nc + 4
	rowsAt := fillAt + 8*tb
	if len(b) < rowsAt {
		return nil, fmt.Errorf("core: snapshot of %d bytes ends inside its %d-byte header", len(b), rowsAt)
	}
	for c := 0; c < nc; c++ {
		q := b[quantAt+snapshotQuantBytes*c:]
		lo, hi := math.Float64frombits(le.Uint64(q)), math.Float64frombits(le.Uint64(q[8:]))
		if bits := le.Uint32(q[16:]); bits < 1 || bits > 16 || 1<<bits != bins {
			return nil, fmt.Errorf("core: channel %d quantises to %d bits, not %d value bins", c, bits, bins)
		}
		if math.IsNaN(lo) || math.IsNaN(hi) || math.IsInf(lo, 0) || math.IsInf(hi, 0) || hi < lo {
			return nil, fmt.Errorf("core: implausible quantiser range [%v, %v]", lo, hi)
		}
	}
	width := int(le.Uint32(b[fillAt-4:]))
	var filled int
	var maxFill, frames uint64
	for i := 0; i < tb; i++ {
		f := le.Uint64(b[fillAt+8*i:])
		if f == 0 {
			continue
		}
		filled++
		maxFill = max(maxFill, f)
		if frames += f; frames < f || frames > math.MaxInt {
			return nil, fmt.Errorf("core: snapshot fill table overflows the frame count")
		}
	}
	if want := cubeWidth(int(tpb), maxFill); width != want {
		return nil, fmt.Errorf("core: snapshot cells are %d bits, its fullest bucket of %d frames makes them %d", width, maxFill, want)
	}
	rowBytes := vb * width / 8
	if want := uint64(rowsAt) + uint64(nc)*uint64(filled)*uint64(rowBytes); uint64(len(b)) != want {
		return nil, fmt.Errorf("core: snapshot is %d bytes, its header and fills call for %d", len(b), want)
	}
	// Channel c's row of the k-th filled bucket sits at (c·filled + k)
	// rows past rowsAt: one pass over the fill table visits every row.
	rows := b[rowsAt:]
	for i, k := 0, 0; i < tb; i++ {
		f := le.Uint64(b[fillAt+8*i:])
		if f == 0 {
			continue
		}
		for c := 0; c < nc; c++ {
			at := (c*filled + k) * rowBytes
			if sum := rowSum(rows[at:at+rowBytes], width); sum != f {
				return nil, fmt.Errorf("core: snapshot channel %d holds %d frames in bucket %d, its fill is %d", c, sum, i, f)
			}
		}
		k++
	}

	quant := make([]compress.Quantizer, nc)
	for c := range quant {
		q := b[quantAt+snapshotQuantBytes*c:]
		quant[c] = compress.Quantizer{
			Min:  math.Float64frombits(le.Uint64(q)),
			Max:  math.Float64frombits(le.Uint64(q[8:])),
			Bits: int(le.Uint32(q[16:])),
		}
	}
	cfg.Rate = rate
	cfg.TimeBuckets = tb
	cfg.ValueBins = vb
	cfg.HorizonTicks = int(tpb) * tb
	ls, err := newLiveStore(quant, cfg, maxFill)
	if err != nil {
		return nil, err
	}
	for i, k := 0, 0; i < tb; i++ {
		f := le.Uint64(b[fillAt+8*i:])
		if f == 0 {
			continue
		}
		ls.fill[i] = f
		for c := 0; c < nc; c++ {
			row := rows[(c*filled+k)*rowBytes:][:rowBytes]
			lo := (c*tb + i) * vb
			switch {
			case ls.c4 != nil:
				copy(ls.c4[lo/2:], row)
			case ls.c8 != nil:
				copy(ls.c8[lo:], row)
			case ls.c16 != nil:
				for j := range ls.c16[lo : lo+vb] {
					ls.c16[lo+j] = le.Uint16(row[2*j:])
				}
			default:
				for j := range ls.c32[lo : lo+vb] {
					ls.c32[lo+j] = le.Uint32(row[4*j:])
				}
			}
		}
		k++
	}
	ls.frames = int(frames)
	return ls, nil
}

// rowSum adds up one encoded row's cells at width bits.
func rowSum(row []byte, width int) uint64 {
	var sum uint64
	switch width {
	case 4:
		for _, v := range row {
			sum += uint64(v&nibbleMax) + uint64(v>>4)
		}
	case 8:
		for _, v := range row {
			sum += uint64(v)
		}
	case 16:
		for ; len(row) > 0; row = row[2:] {
			sum += uint64(binary.LittleEndian.Uint16(row))
		}
	default:
		for ; len(row) > 0; row = row[4:] {
			sum += uint64(binary.LittleEndian.Uint32(row))
		}
	}
	return sum
}
