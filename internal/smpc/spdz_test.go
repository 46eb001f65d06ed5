package smpc

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestSPDZShareOpen(t *testing.T) {
	d := NewDealer(3)
	alpha := []Fe{d.AlphaShare(0), d.AlphaShare(1), d.AlphaShare(2)}
	v := Fe(424242)
	shares := d.Share(v)
	got, err := Open(shares, alpha)
	if err != nil {
		t.Fatal(err)
	}
	if got != v {
		t.Fatalf("opened %d, want %d", got, v)
	}
}

// The FT security claim: tampering with any single share must abort.
func TestSPDZMACCheckDetectsTampering(t *testing.T) {
	d := NewDealer(4)
	alpha := make([]Fe, 4)
	for i := range alpha {
		alpha[i] = d.AlphaShare(i)
	}
	v := Fe(777)
	for node := 0; node < 4; node++ {
		shares := d.Share(v)
		shares[node].Val = Add(shares[node].Val, 1) // malicious node adds 1
		if _, err := Open(shares, alpha); !errors.Is(err, ErrMACCheckFailed) {
			t.Fatalf("tampering by node %d not detected: %v", node, err)
		}
	}
	// Tampering with a MAC share must also abort.
	shares := d.Share(v)
	shares[2].MAC = Add(shares[2].MAC, 1)
	if _, err := Open(shares, alpha); !errors.Is(err, ErrMACCheckFailed) {
		t.Fatal("MAC tampering not detected")
	}
}

// Property: additive shares of random values open correctly.
func TestSPDZShareOpenProperty(t *testing.T) {
	d := NewDealer(5)
	alpha := make([]Fe, 5)
	for i := range alpha {
		alpha[i] = d.AlphaShare(i)
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := Fe(r.Uint64() % P)
		got, err := Open(d.Share(v), alpha)
		return err == nil && got == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSPDZLinearOps(t *testing.T) {
	d := NewDealer(3)
	alpha := []Fe{d.AlphaShare(0), d.AlphaShare(1), d.AlphaShare(2)}
	x, y := Fe(100), Fe(30)
	sx, sy := d.Share(x), d.Share(y)

	sum, err := Open(AddShares(sx, sy), alpha)
	if err != nil || sum != 130 {
		t.Fatalf("add: %v %v", sum, err)
	}
	diff, err := Open(SubShares(sx, sy), alpha)
	if err != nil || diff != 70 {
		t.Fatalf("sub: %v %v", diff, err)
	}
	scaled, err := Open(ScaleShares(sx, 7), alpha)
	if err != nil || scaled != 700 {
		t.Fatalf("scale: %v %v", scaled, err)
	}
	shifted, err := Open(AddPublic(sx, 5, alpha), alpha)
	if err != nil || shifted != 105 {
		t.Fatalf("add public: %v %v", shifted, err)
	}
}

func TestSPDZBeaverMultiply(t *testing.T) {
	d := NewDealer(3)
	alpha := []Fe{d.AlphaShare(0), d.AlphaShare(1), d.AlphaShare(2)}
	x, y := Fe(12345), Fe(6789)
	z, err := Multiply(d.Share(x), d.Share(y), d.Triple(), alpha)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Open(z, alpha)
	if err != nil {
		t.Fatal(err)
	}
	if got != Mul(x, y) {
		t.Fatalf("product = %d, want %d", got, Mul(x, y))
	}
	if d.TriplesIn != 1 {
		t.Fatalf("triple count = %d", d.TriplesIn)
	}
}

// TestDealerTripleConcurrent draws triples from two goroutines at once, as
// two concurrent secure aggregations do through their shared dealer. Run
// under -race it pins the counter's synchronisation; the count itself must
// not lose increments.
func TestDealerTripleConcurrent(t *testing.T) {
	d := NewDealer(3)
	const perGoroutine = 200
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perGoroutine; i++ {
				if tr := d.Triple(); len(tr) != 3 {
					t.Errorf("triple has %d node shares, want 3", len(tr))
					return
				}
			}
		}()
	}
	wg.Wait()
	if d.TriplesIn != 2*perGoroutine {
		t.Fatalf("triple count = %d, want %d", d.TriplesIn, 2*perGoroutine)
	}
}

// Property: Beaver multiplication is correct for random inputs.
func TestSPDZBeaverProperty(t *testing.T) {
	d := NewDealer(3)
	alpha := []Fe{d.AlphaShare(0), d.AlphaShare(1), d.AlphaShare(2)}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		x := Fe(r.Uint64() % P)
		y := Fe(r.Uint64() % P)
		z, err := Multiply(d.Share(x), d.Share(y), d.Triple(), alpha)
		if err != nil {
			return false
		}
		got, err := Open(z, alpha)
		return err == nil && got == Mul(x, y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSPDZMultiplyAfterTampering(t *testing.T) {
	d := NewDealer(3)
	alpha := []Fe{d.AlphaShare(0), d.AlphaShare(1), d.AlphaShare(2)}
	sx, sy := d.Share(5), d.Share(7)
	sx[1].Val = Add(sx[1].Val, 3)
	if _, err := Multiply(sx, sy, d.Triple(), alpha); !errors.Is(err, ErrMACCheckFailed) {
		t.Fatalf("tampered multiply input must abort, got %v", err)
	}
}

func TestRandomMaskPositive(t *testing.T) {
	d := NewDealer(3)
	alpha := []Fe{d.AlphaShare(0), d.AlphaShare(1), d.AlphaShare(2)}
	for i := 0; i < 50; i++ {
		m, err := Open(d.RandomMask(20), alpha)
		if err != nil {
			t.Fatal(err)
		}
		if m == 0 || uint64(m) >= 1<<20 {
			t.Fatalf("mask %d out of (0, 2^20)", m)
		}
	}
}

func TestOpenNoCheck(t *testing.T) {
	d := NewDealer(3)
	v := Fe(99)
	if got := OpenNoCheck(d.Share(v)); got != v {
		t.Fatalf("OpenNoCheck = %d", got)
	}
}

func TestShareVecShape(t *testing.T) {
	d := NewDealer(4)
	sh := d.ShareVec([]Fe{1, 2, 3})
	if len(sh) != 4 || len(sh[0]) != 3 {
		t.Fatalf("shape %dx%d", len(sh), len(sh[0]))
	}
	alpha := make([]Fe, 4)
	for i := range alpha {
		alpha[i] = d.AlphaShare(i)
	}
	for e := 0; e < 3; e++ {
		col := make([]AuthShare, 4)
		for n := 0; n < 4; n++ {
			col[n] = sh[n][e]
		}
		v, err := Open(col, alpha)
		if err != nil || v != Fe(e+1) {
			t.Fatalf("elem %d: %v %v", e, v, err)
		}
	}
}
