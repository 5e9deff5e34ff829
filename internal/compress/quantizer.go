// Package compress implements the conventional compression baselines the
// paper compares its sampling policies against (§3.1): block-based entropy
// coding ("e.g., Unix zip software (based on Hoffman coding)") via a
// canonical Huffman coder, uniform quantization, and an IMA-style ADPCM
// codec ("Adaptive DPCM") — plus the composition of sampling with ADPCM the
// follow-up study evaluated.
package compress

import (
	"fmt"
	"math"
)

// Quantizer maps floats in [Min, Max] onto unsigned integers of Bits bits.
type Quantizer struct {
	Min, Max float64
	Bits     int
}

// NewQuantizer builds a quantizer for the given range and bit width
// (1..16).
func NewQuantizer(min, max float64, bits int) Quantizer {
	if bits < 1 || bits > 16 {
		panic(fmt.Sprintf("compress: quantizer bits %d out of [1,16]", bits))
	}
	if max <= min {
		max = min + 1
	}
	return Quantizer{Min: min, Max: max, Bits: bits}
}

// QuantizerFor derives a quantizer spanning the observed range of x.
func QuantizerFor(x []float64, bits int) Quantizer {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range x {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if len(x) == 0 {
		lo, hi = 0, 1
	}
	return NewQuantizer(lo, hi, bits)
}

// Levels returns the number of quantization levels.
func (q Quantizer) Levels() int { return 1 << uint(q.Bits) }

// Quantize maps v to its level index, clamping out-of-range values into
// the edge levels (see Level).
func (q Quantizer) Quantize(v float64) int {
	top := float64(q.Levels() - 1)
	return Level((v-q.Min)/(q.Max-q.Min)*top, top)
}

// belowHalf is the largest float64 below ½.
const belowHalf = 0.49999999999999994

// Level returns the level index at position x of a level scale whose top
// level is top: (v−Min)/(Max−Min)·top for a value v, as Quantize computes
// it. In-range positions round to the nearest level, halves up, exactly as
// int(math.Round(x)) does: x + belowHalf truncates to math.Round(x) for
// every x in [0, 2^52), and top is at most 2^16−1. Out-of-range positions
// clamp in the float domain, before any conversion, so the edge levels do
// not depend on how a platform converts an out-of-range float to int:
// x ≥ top (+Inf included) is level top; x ≤ 0, −Inf and NaN are level 0.
//
// Level is branch-free for in-range positions and small enough to inline,
// so a per-value loop that bins through it pays no call.
func Level(x, top float64) int {
	if x >= top {
		return int(top)
	}
	if !(x > 0) {
		return 0
	}
	return int(x + belowHalf)
}

// Dequantize maps a level index back to the centre of its cell.
func (q Quantizer) Dequantize(i int) float64 {
	n := q.Levels()
	return q.Min + float64(i)/float64(n-1)*(q.Max-q.Min)
}

// Step returns the quantization step size.
func (q Quantizer) Step() float64 { return (q.Max - q.Min) / float64(q.Levels()-1) }

// QuantizeAll quantizes a signal to level indices.
func (q Quantizer) QuantizeAll(x []float64) []int {
	out := make([]int, len(x))
	for i, v := range x {
		out[i] = q.Quantize(v)
	}
	return out
}

// DequantizeAll reconstructs a signal from level indices.
func (q Quantizer) DequantizeAll(levels []int) []float64 {
	out := make([]float64, len(levels))
	for i, l := range levels {
		out[i] = q.Dequantize(l)
	}
	return out
}
