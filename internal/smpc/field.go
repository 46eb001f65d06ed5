// Package smpc implements MIP's secure multi-party computation engine: the
// component that aggregates Worker results so that "only aggregated,
// encrypted data leaves the hospital".
//
// Two schemes are provided, matching the paper:
//
//   - FT (full threshold): additive secret sharing with SPDZ-style
//     information-theoretic MACs. Secure with abort against an
//     active-malicious majority — if even a single node is honest, tampering
//     is detected and the computation aborts. The multiplication
//     preprocessing (Beaver triples) is produced by a dealer, standing in
//     for SPDZ's offline phase (the paper's engine, SCALE-MAMBA running
//     SPDZ, likewise splits work into offline and online phases).
//
//   - Shamir: (t, n) polynomial secret sharing with t < n/2, secure against
//     honest-but-curious adversaries. Much faster, as the paper notes; the
//     data owner chooses the scheme as a security/efficiency trade-off.
//
// All arithmetic is over the Mersenne prime field GF(2^61 − 1); reals are
// carried as fixed-point field elements.
package smpc

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"sync"
)

// P is the field modulus, the Mersenne prime 2^61 − 1.
const P uint64 = (1 << 61) - 1

// Fe is a field element in [0, P).
type Fe uint64

// reduce maps a value < 2·P into [0, P).
func reduce(x uint64) Fe {
	if x >= P {
		x -= P
	}
	return Fe(x)
}

// Add returns a + b mod P.
func Add(a, b Fe) Fe { return reduce(uint64(a) + uint64(b)) }

// Sub returns a − b mod P.
func Sub(a, b Fe) Fe { return reduce(uint64(a) + P - uint64(b)) }

// Neg returns −a mod P.
func Neg(a Fe) Fe {
	if a == 0 {
		return 0
	}
	return Fe(P - uint64(a))
}

// Mul returns a·b mod P using the Mersenne reduction: for p = 2^61 − 1,
// (hi·2^64 + lo) ≡ hi·8 + lo (mod p) after splitting lo at bit 61.
func Mul(a, b Fe) Fe {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	// x = hi·2^64 + lo = (hi·2^3)·2^61 + lo.
	// 2^61 ≡ 1 (mod P), so x ≡ hi·8 + (lo >> 61 part folded) + low bits.
	low := lo & P
	mid := (lo >> 61) | (hi << 3)
	s := low + (mid & P) + (mid >> 61)
	for s >= P {
		s -= P
	}
	return Fe(s)
}

// Pow returns a^e mod P by square-and-multiply.
func Pow(a Fe, e uint64) Fe {
	result := Fe(1)
	base := a
	for e > 0 {
		if e&1 == 1 {
			result = Mul(result, base)
		}
		base = Mul(base, base)
		e >>= 1
	}
	return result
}

// Inv returns the multiplicative inverse of a (panics on zero).
func Inv(a Fe) Fe {
	if a == 0 {
		panic("smpc: inverse of zero")
	}
	return Pow(a, uint64(P)-2) // Fermat
}

// streamBytes is the size of one feStream refill: 1 024 field elements per
// crypto/rand read, so the OS CSPRNG's per-call cost vanishes against the
// arithmetic of a share kernel.
const streamBytes = 8 << 10

// feStream is the one source of every dealer draw (value and MAC shares,
// Beaver triples, comparison masks, Shamir coefficients, noise re-sharing):
// uniform field elements cut from a buffer of crypto/rand output. It is not
// a seeded PRG: every element is fresh OS randomness, so shares stay
// uniformly random without a further assumption. A stream is owned by one
// goroutine between getStream and putStream.
type feStream struct {
	src io.Reader // crypto/rand.Reader outside tests
	buf [streamBytes]byte
	pos int // next unread byte; len(buf) means drained
}

// streams recycles feStreams across kernel calls: a stream is taken once
// per call (not per element), and unread bytes stay usable by the next call.
var streams = sync.Pool{
	New: func() any { return &feStream{src: rand.Reader, pos: streamBytes} },
}

func getStream() *feStream  { return streams.Get().(*feStream) }
func putStream(s *feStream) { streams.Put(s) }

// next returns a uniform element of [0, P): 61 bits of the buffer, with the
// single invalid value P rejected.
func (s *feStream) next() Fe {
	for {
		if s.pos == len(s.buf) {
			if _, err := io.ReadFull(s.src, s.buf[:]); err != nil {
				panic(fmt.Sprintf("smpc: crypto/rand failed: %v", err))
			}
			s.pos = 0
		}
		v := binary.LittleEndian.Uint64(s.buf[s.pos:]) & P
		s.pos += 8
		if v != P {
			return Fe(v)
		}
	}
}

// RandFe draws a uniform field element from crypto/rand.
func RandFe() Fe {
	s := getStream()
	defer putStream(s)
	return s.next()
}

// RandVec draws a vector of uniform field elements.
func RandVec(n int) []Fe {
	s := getStream()
	defer putStream(s)
	out := make([]Fe, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}
