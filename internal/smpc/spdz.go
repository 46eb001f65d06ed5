package smpc

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// SPDZ-style full-threshold sharing: x is split into additive shares
// x₁+…+x_n = x, each accompanied by a MAC share mᵢ with Σmᵢ = α·x for a
// global MAC key α that is itself additively shared (node i holds αᵢ,
// Σαᵢ = α). Opening a value runs the SPDZ MACCheck: after the candidate
// value v is public, each node computes σᵢ = mᵢ − αᵢ·v and the σ's must
// sum to zero — any tampering with value shares is caught except with
// probability 1/P, so the computation is secure-with-abort against an
// active-malicious majority (the paper's FT mode).

// ErrMACCheckFailed signals tampering detected during an opening; the
// computation must abort.
var ErrMACCheckFailed = errors.New("smpc: MAC check failed — aborting (possible tampering)")

// AuthShare is one node's authenticated share of a value.
type AuthShare struct {
	Val Fe // additive value share
	MAC Fe // additive share of α·value
}

// Triple is one node's share of a Beaver multiplication triple
// (a, b, c = a·b), produced by the offline phase.
type Triple struct {
	A, B, C AuthShare
}

// Dealer plays SPDZ's offline-phase functionality: it generates the MAC
// key shares and the preprocessing material (Beaver triples, random masks).
// In production SPDZ this functionality is realized with somewhat-
// homomorphic encryption or OT; modeling it as a dealer preserves the
// online protocol exactly, which is what the benchmarks exercise.
type Dealer struct {
	n       int
	alpha   Fe
	alphaSh []Fe
	// TriplesIn counts the triples generated (offline cost metric). Triple
	// may run concurrently — secure aggregations share one dealer — so it is
	// incremented atomically; read it once the draws have finished.
	TriplesIn int64
}

// NewDealer sets up the offline functionality for n nodes.
func NewDealer(n int) *Dealer {
	if n <= 0 {
		panic("smpc: dealer needs at least one node")
	}
	d := &Dealer{n: n, alpha: RandFe()}
	d.alphaSh = d.additive(d.alpha)
	return d
}

// N returns the number of nodes.
func (d *Dealer) N() int { return d.n }

// AlphaShare returns node i's share of the MAC key.
func (d *Dealer) AlphaShare(i int) Fe { return d.alphaSh[i] }

// additive splits v into n uniformly random additive shares.
func (d *Dealer) additive(v Fe) []Fe {
	shares := make([]Fe, d.n)
	var acc Fe
	for i := 0; i < d.n-1; i++ {
		shares[i] = RandFe()
		acc = Add(acc, shares[i])
	}
	shares[d.n-1] = Sub(v, acc)
	return shares
}

// Share produces the authenticated sharing of v: per-node AuthShares.
func (d *Dealer) Share(v Fe) []AuthShare {
	vals := d.additive(v)
	macs := d.additive(Mul(d.alpha, v))
	out := make([]AuthShare, d.n)
	for i := range out {
		out[i] = AuthShare{Val: vals[i], MAC: macs[i]}
	}
	return out
}

// ShareVec shares a whole vector; result is indexed [node][element].
func (d *Dealer) ShareVec(vs []Fe) [][]AuthShare {
	out := make([][]AuthShare, d.n)
	for i := range out {
		out[i] = make([]AuthShare, len(vs))
	}
	for j, v := range vs {
		sh := d.Share(v)
		for i := range sh {
			out[i][j] = sh[i]
		}
	}
	return out
}

// Triple draws one Beaver triple (offline phase work).
func (d *Dealer) Triple() []Triple {
	a, b := RandFe(), RandFe()
	c := Mul(a, b)
	as, bs, cs := d.Share(a), d.Share(b), d.Share(c)
	out := make([]Triple, d.n)
	for i := range out {
		out[i] = Triple{A: as[i], B: bs[i], C: cs[i]}
	}
	atomic.AddInt64(&d.TriplesIn, 1)
	return out
}

// RandomMask draws a shared random value with a public sign guarantee
// (uniform in [1, 2^bound]); used by the masked-comparison protocol.
func (d *Dealer) RandomMask(bound uint) []AuthShare {
	for {
		r := RandFe()
		v := uint64(r) & ((1 << bound) - 1)
		if v == 0 {
			continue
		}
		return d.Share(Fe(v))
	}
}

// AddShares adds two authenticated sharings locally (no interaction).
func AddShares(a, b []AuthShare) []AuthShare {
	out := make([]AuthShare, len(a))
	for i := range a {
		out[i] = AuthShare{Val: Add(a[i].Val, b[i].Val), MAC: Add(a[i].MAC, b[i].MAC)}
	}
	return out
}

// SubShares subtracts b from a locally.
func SubShares(a, b []AuthShare) []AuthShare {
	out := make([]AuthShare, len(a))
	for i := range a {
		out[i] = AuthShare{Val: Sub(a[i].Val, b[i].Val), MAC: Sub(a[i].MAC, b[i].MAC)}
	}
	return out
}

// ScaleShares multiplies a sharing by a public constant locally.
func ScaleShares(a []AuthShare, k Fe) []AuthShare {
	out := make([]AuthShare, len(a))
	for i := range a {
		out[i] = AuthShare{Val: Mul(a[i].Val, k), MAC: Mul(a[i].MAC, k)}
	}
	return out
}

// AddPublic adds a public constant to a sharing: node 0 adjusts its value
// share; every node adjusts its MAC share by αᵢ·k.
func AddPublic(a []AuthShare, k Fe, alphaShares []Fe) []AuthShare {
	out := make([]AuthShare, len(a))
	for i := range a {
		out[i] = AuthShare{Val: a[i].Val, MAC: Add(a[i].MAC, Mul(alphaShares[i], k))}
	}
	out[0].Val = Add(out[0].Val, k)
	return out
}

// Open reveals the shared value and runs the MACCheck. alphaShares are the
// nodes' MAC-key shares. It returns ErrMACCheckFailed on any inconsistency.
func Open(shares []AuthShare, alphaShares []Fe) (Fe, error) {
	if len(shares) != len(alphaShares) {
		return 0, fmt.Errorf("smpc: %d shares but %d alpha shares", len(shares), len(alphaShares))
	}
	var v Fe
	for _, s := range shares {
		v = Add(v, s.Val)
	}
	// MACCheck: Σᵢ (mᵢ − αᵢ·v) must be zero.
	var sigma Fe
	for i, s := range shares {
		sigma = Add(sigma, Sub(s.MAC, Mul(alphaShares[i], v)))
	}
	if sigma != 0 {
		return 0, ErrMACCheckFailed
	}
	return v, nil
}

// OpenNoCheck reveals the value without authentication (used only for the
// d/e openings inside Beaver multiplication, whose MACs are checked when
// the product itself is opened — the standard deferred-check optimization
// is simplified here to immediate per-value opening).
func OpenNoCheck(shares []AuthShare) Fe {
	var v Fe
	for _, s := range shares {
		v = Add(v, s.Val)
	}
	return v
}

// Multiply runs the Beaver online multiplication: given sharings of x and
// y and one triple per node, it returns a sharing of x·y. Two values
// (x−a, y−b) are opened; everything else is local.
func Multiply(x, y []AuthShare, triples []Triple, alphaShares []Fe) ([]AuthShare, error) {
	n := len(x)
	if len(y) != n || len(triples) != n {
		return nil, fmt.Errorf("smpc: multiply share count mismatch")
	}
	a := make([]AuthShare, n)
	b := make([]AuthShare, n)
	c := make([]AuthShare, n)
	for i := range triples {
		a[i], b[i], c[i] = triples[i].A, triples[i].B, triples[i].C
	}
	dShares := SubShares(x, a)
	eShares := SubShares(y, b)
	dv, err := Open(dShares, alphaShares)
	if err != nil {
		return nil, err
	}
	ev, err := Open(eShares, alphaShares)
	if err != nil {
		return nil, err
	}
	// z = c + d·b + e·a + d·e
	z := AddShares(c, ScaleShares(b, dv))
	z = AddShares(z, ScaleShares(a, ev))
	z = AddPublic(z, Mul(dv, ev), alphaShares)
	return z, nil
}
