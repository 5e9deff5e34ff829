package propolyne

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"aims/internal/wavelet"
)

// Binary persistence for populated engines: the transformed cube is the
// store's durable form (the paper keeps the wavelet blocks, not the raw
// relation). The format is versioned and self-describing:
//
//	magic "AIMSPPE1" | nDims u32 | dims u32… |
//	per dim: standard u8, filterName u8+bytes, levels u32 |
//	coeffs u64 | float64 bits…

var engineMagic = [8]byte{'A', 'I', 'M', 'S', 'P', 'P', 'E', '1'}

// coeffChunk is how many coefficients WriteTo and ReadEngine move per
// Write/ReadFull: 32 KiB of scratch, whatever the cube's size.
const coeffChunk = 4096

// WriteTo serialises the engine. It implements io.WriterTo.
func (e *Engine) WriteTo(w io.Writer) (int64, error) {
	le := binary.LittleEndian
	hdr := append([]byte(nil), engineMagic[:]...)
	hdr = le.AppendUint32(hdr, uint32(len(e.Dims)))
	for _, d := range e.Dims {
		hdr = le.AppendUint32(hdr, uint32(d))
	}
	for d, b := range e.Bases {
		std, name := uint8(0), ""
		if b.Standard {
			std = 1
		} else {
			name = b.Filter.Name
		}
		hdr = append(hdr, std, uint8(len(name)))
		hdr = append(hdr, name...)
		hdr = le.AppendUint32(hdr, uint32(e.Levels[d]))
	}
	hdr = le.AppendUint64(hdr, uint64(len(e.Coeffs)))
	m, err := w.Write(hdr)
	n := int64(m)
	if err != nil {
		return n, err
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	chunk := make([]byte, 8*coeffChunk)
	for rest := e.Coeffs; len(rest) > 0; {
		k := min(len(rest), coeffChunk)
		for i, v := range rest[:k] {
			le.PutUint64(chunk[8*i:], math.Float64bits(v))
		}
		m, err := w.Write(chunk[:8*k])
		n += int64(m)
		if err != nil {
			return n, err
		}
		rest = rest[k:]
	}
	return n, nil
}

// ReadEngine deserialises an engine written by WriteTo.
func ReadEngine(r io.Reader) (*Engine, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if err := binary.Read(br, binary.LittleEndian, &magic); err != nil {
		return nil, fmt.Errorf("propolyne: read magic: %w", err)
	}
	if magic != engineMagic {
		return nil, fmt.Errorf("propolyne: bad magic %q", magic[:])
	}
	var nd uint32
	if err := binary.Read(br, binary.LittleEndian, &nd); err != nil {
		return nil, err
	}
	if nd == 0 || nd > 16 {
		return nil, fmt.Errorf("propolyne: implausible dimension count %d", nd)
	}
	e := &Engine{
		Dims:   make(wavelet.Dims, nd),
		Bases:  make([]Basis, nd),
		Levels: make([]int, nd),
	}
	// maxCells bounds the cube a corrupt header can make us allocate
	// (2 GiB of float64) and keeps the running product from overflowing.
	const maxCells = 1 << 28
	size := 1
	for d := range e.Dims {
		var v uint32
		if err := binary.Read(br, binary.LittleEndian, &v); err != nil {
			return nil, err
		}
		if v == 0 || v > 1<<24 || v&(v-1) != 0 {
			return nil, fmt.Errorf("propolyne: implausible dimension size %d", v)
		}
		if size > maxCells/int(v) {
			return nil, fmt.Errorf("propolyne: cube %v exceeds %d cells", e.Dims[:d+1], maxCells)
		}
		e.Dims[d] = int(v)
		size *= int(v)
	}
	for d := range e.Bases {
		var std, nameLen uint8
		if err := binary.Read(br, binary.LittleEndian, &std); err != nil {
			return nil, err
		}
		if err := binary.Read(br, binary.LittleEndian, &nameLen); err != nil {
			return nil, err
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(br, name); err != nil {
			return nil, err
		}
		var levels uint32
		if err := binary.Read(br, binary.LittleEndian, &levels); err != nil {
			return nil, err
		}
		if levels > 32 {
			return nil, fmt.Errorf("propolyne: implausible level count %d", levels)
		}
		e.Levels[d] = int(levels)
		if std == 1 {
			e.Bases[d] = Basis{Standard: true}
			continue
		}
		f, err := wavelet.ByName(string(name))
		if err != nil {
			return nil, err
		}
		if int(levels) > wavelet.MaxLevels(e.Dims[d], f) {
			return nil, fmt.Errorf("propolyne: levels %d impossible for dim %d", levels, e.Dims[d])
		}
		e.Bases[d] = Basis{Filter: f}
	}
	var nc uint64
	if err := binary.Read(br, binary.LittleEndian, &nc); err != nil {
		return nil, err
	}
	if nc != uint64(size) {
		return nil, fmt.Errorf("propolyne: coefficient count %d != cube size %d", nc, size)
	}
	e.Coeffs = make([]float64, nc)
	chunk := make([]byte, 8*coeffChunk)
	for rest := e.Coeffs; len(rest) > 0; {
		k := min(len(rest), coeffChunk)
		if _, err := io.ReadFull(br, chunk[:8*k]); err != nil {
			return nil, fmt.Errorf("propolyne: truncated coefficients: %w", err)
		}
		for i := range rest[:k] {
			rest[i] = math.Float64frombits(binary.LittleEndian.Uint64(chunk[8*i:]))
		}
		rest = rest[k:]
	}
	return e, nil
}
