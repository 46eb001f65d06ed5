package smpc

import (
	"fmt"
	"math"
)

// Fixed-point encoding of reals into the field: x ↦ round(x · 2^frac) mod P,
// with negatives in the upper half of the field. The default 20 fractional
// bits give ~1e-6 resolution; the integral magnitude must stay below
// 2^(60 − frac) so sums do not wrap.

// DefaultFracBits is the default fixed-point precision.
const DefaultFracBits = 20

// Codec converts between float64 and field elements.
type Codec struct {
	FracBits uint
}

// NewCodec returns a codec with the given fractional bits (0 picks the
// default).
func NewCodec(fracBits uint) Codec {
	if fracBits == 0 {
		fracBits = DefaultFracBits
	}
	return Codec{FracBits: fracBits}
}

// half marks the boundary between positive and negative encodings.
const half = P / 2

// Encode converts a real to a field element. Values whose scaled magnitude
// exceeds the representable range are clamped (and reported by EncodeErr).
func (c Codec) Encode(x float64) Fe {
	f, _ := c.EncodeErr(x)
	return f
}

// EncodeErr converts a real to a field element, reporting range errors.
func (c Codec) EncodeErr(x float64) (Fe, error) {
	if math.IsNaN(x) {
		return 0, fmt.Errorf("smpc: cannot encode NaN")
	}
	scaled := x * float64(uint64(1)<<c.FracBits)
	limit := float64(half)
	if scaled >= limit {
		return Fe(half), fmt.Errorf("smpc: %v overflows fixed-point range", x)
	}
	if scaled <= -limit {
		return Neg(Fe(half)), fmt.Errorf("smpc: %v underflows fixed-point range", x)
	}
	r := math.Round(scaled)
	if r < 0 {
		return Neg(Fe(uint64(-r))), nil
	}
	return Fe(uint64(r)), nil
}

// Decode converts a field element back to a real.
func (c Codec) Decode(f Fe) float64 {
	scale := float64(uint64(1) << c.FracBits)
	if uint64(f) > half {
		return -float64(P-uint64(f)) / scale
	}
	return float64(uint64(f)) / scale
}

// DecodeProduct decodes the product of two encoded values (which carries
// 2·FracBits of scaling).
func (c Codec) DecodeProduct(f Fe) float64 {
	scale := float64(uint64(1) << c.FracBits)
	if uint64(f) > half {
		return -float64(P-uint64(f)) / (scale * scale)
	}
	return float64(uint64(f)) / (scale * scale)
}

// EncodeVec encodes a vector.
func (c Codec) EncodeVec(xs []float64) []Fe {
	out := make([]Fe, len(xs))
	for i, x := range xs {
		out[i] = c.Encode(x)
	}
	return out
}

// encoder feeds xs to a share kernel one encoded element at a time, so no
// encoded copy of the vector is ever materialised; an element EncodeErr
// rejects is an error naming its index.
func (c Codec) encoder(xs []float64) func(j int) (Fe, error) {
	return func(j int) (Fe, error) {
		f, err := c.EncodeErr(xs[j])
		if err != nil {
			return 0, fmt.Errorf("element %d: %w", j, err)
		}
		return f, nil
	}
}

// DecodeVec decodes a vector.
func (c Codec) DecodeVec(fs []Fe) []float64 {
	out := make([]float64, len(fs))
	for i, f := range fs {
		out[i] = c.Decode(f)
	}
	return out
}

// Resolution returns the representable step size.
func (c Codec) Resolution() float64 { return 1 / float64(uint64(1)<<c.FracBits) }

// MaxAbs returns the largest encodable magnitude.
func (c Codec) MaxAbs() float64 {
	return float64(half) / float64(uint64(1)<<c.FracBits)
}
