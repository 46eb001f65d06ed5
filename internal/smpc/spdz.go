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
	s := getStream()
	defer putStream(s)
	d := &Dealer{n: n, alpha: s.next(), alphaSh: make([]Fe, n)}
	var acc Fe
	for i := 0; i < n-1; i++ {
		d.alphaSh[i] = s.next()
		acc = Add(acc, d.alphaSh[i])
	}
	d.alphaSh[n-1] = Sub(d.alpha, acc)
	return d
}

// N returns the number of nodes.
func (d *Dealer) N() int { return d.n }

// AlphaShare returns node i's share of the MAC key.
func (d *Dealer) AlphaShare(i int) Fe { return d.alphaSh[i] }

// split is the additive-split kernel every authenticated sharing runs
// through. It writes node i's share of v to dst[i·stride]: nodes 0..n−2 get
// uniform value and MAC shares from s, node n−1 the differences to v and
// α·v.
func (d *Dealer) split(s *feStream, v Fe, dst []AuthShare, stride int) {
	var val, mac Fe
	last := (d.n - 1) * stride
	for i := 0; i < last; i += stride {
		sh := AuthShare{Val: s.next(), MAC: s.next()}
		dst[i] = sh
		val, mac = Add(val, sh.Val), Add(mac, sh.MAC)
	}
	dst[last] = AuthShare{Val: Sub(v, val), MAC: Sub(Mul(d.alpha, v), mac)}
}

// shareEach is the FT vector kernel: it shares the m values at(0..m−1) into
// one node-major array, node i's shares at [i·m, (i+1)·m). It stops at the
// first value at fails to produce.
func (d *Dealer) shareEach(m int, at func(j int) (Fe, error)) ([]AuthShare, error) {
	s := getStream()
	defer putStream(s)
	back := make([]AuthShare, d.n*m)
	for j := 0; j < m; j++ {
		v, err := at(j)
		if err != nil {
			return nil, err
		}
		d.split(s, v, back[j:], m)
	}
	return back, nil
}

// byNode views a node-major array of n·m shares as n per-node vectors.
func byNode[T any](back []T, n, m int) [][]T {
	out := make([][]T, n)
	for i := range out {
		out[i] = back[i*m : (i+1)*m : (i+1)*m]
	}
	return out
}

// Share produces the authenticated sharing of v: per-node AuthShares.
func (d *Dealer) Share(v Fe) []AuthShare {
	s := getStream()
	defer putStream(s)
	out := make([]AuthShare, d.n)
	d.split(s, v, out, 1)
	return out
}

// ShareVec shares a whole vector; result is indexed [node][element].
func (d *Dealer) ShareVec(vs []Fe) [][]AuthShare {
	back, _ := d.shareEach(len(vs), func(j int) (Fe, error) { return vs[j], nil }) // cannot fail
	return byNode(back, d.n, len(vs))
}

// Triple draws one Beaver triple (offline phase work).
func (d *Dealer) Triple() []Triple {
	s := getStream()
	defer putStream(s)
	a, b := s.next(), s.next()
	abc := make([]AuthShare, 3*d.n) // node i's shares of a, b, a·b at 3i, 3i+1, 3i+2
	d.split(s, a, abc[0:], 3)
	d.split(s, b, abc[1:], 3)
	d.split(s, Mul(a, b), abc[2:], 3)
	out := make([]Triple, d.n)
	for i := range out {
		out[i] = Triple{A: abc[3*i], B: abc[3*i+1], C: abc[3*i+2]}
	}
	atomic.AddInt64(&d.TriplesIn, 1)
	return out
}

// RandomMask draws a shared random value with a public sign guarantee
// (uniform in [1, 2^bound]); used by the masked-comparison protocol.
func (d *Dealer) RandomMask(bound uint) []AuthShare {
	s := getStream()
	defer putStream(s)
	var v Fe
	for v == 0 {
		v = s.next() & (1<<bound - 1)
	}
	out := make([]AuthShare, d.n)
	d.split(s, v, out, 1)
	return out
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
