package smpc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

// bit60 is the top bit of an element: a uniform element of GF(2^61−1) has
// it set with probability ≈ 1/2.
func bit60(v Fe) int { return int(uint64(v) >> 60 & 1) }

// checkRandomShares asserts that the drawn shares are neither constant nor
// biased in their top bit.
func checkRandomShares(t *testing.T, name string, drawn []Fe) {
	t.Helper()
	set, allEqual := 0, true
	for _, v := range drawn {
		set += bit60(v)
		allEqual = allEqual && v == drawn[0]
	}
	if allEqual {
		t.Fatalf("%s: all %d random shares equal %d", name, len(drawn), drawn[0])
	}
	// 8σ either side of one half for ≥ 20 000 fair draws.
	if frac := float64(set) / float64(len(drawn)); frac < 0.47 || frac > 0.53 {
		t.Fatalf("%s: bit 60 set in %.3f of %d shares, want ≈ 0.5", name, frac, len(drawn))
	}
}

func TestShareVecKernel(t *testing.T) {
	const n, m = 3, 10000
	d := NewDealer(n)
	alpha := make([]Fe, n)
	for i := range alpha {
		alpha[i] = d.AlphaShare(i)
	}
	vs := make([]Fe, m)
	for e := range vs {
		vs[e] = Fe(uint64(e) * 7919 % P)
	}
	sh := d.ShareVec(vs)
	if len(sh) != n {
		t.Fatalf("%d node vectors, want %d", len(sh), n)
	}
	col := make([]AuthShare, n)
	var drawn []Fe
	for e, want := range vs {
		for node := range col {
			col[node] = sh[node][e]
		}
		got, err := Open(col, alpha)
		if err != nil || got != want {
			t.Fatalf("elem %d: opened %d, %v; want %d", e, got, err, want)
		}
		for node := 0; node < n-1; node++ {
			drawn = append(drawn, col[node].Val, col[node].MAC)
		}
	}
	checkRandomShares(t, "FT", drawn)
}

func TestShamirShareVecKernel(t *testing.T) {
	const tt, n, m = 1, 3, 10000
	vs := make([]Fe, m)
	for e := range vs {
		vs[e] = Fe(uint64(e) * 104729 % P)
	}
	sh := ShamirShareVec(vs, tt, n)
	if len(sh) != n {
		t.Fatalf("%d node vectors, want %d", len(sh), n)
	}
	coeffs := make([]Fe, 0, 2*m)
	for e, want := range vs {
		// Every pair of nodes reconstructs the same secret.
		for _, pair := range [][2]int{{0, 1}, {1, 2}, {0, 2}} {
			got, err := ShamirReconstruct([]ShamirShare{sh[pair[0]][e], sh[pair[1]][e]}, tt)
			if err != nil || got != want {
				t.Fatalf("elem %d nodes %v: reconstructed %d, %v; want %d", e, pair, got, err, want)
			}
		}
		for node := 0; node < n; node++ {
			if sh[node][e].X != uint64(node+1) {
				t.Fatalf("elem %d node %d: x = %d", e, node, sh[node][e].X)
			}
		}
		// f(1) − f(0) is the random degree-1 coefficient.
		coeffs = append(coeffs, Sub(sh[0][e].Y, want))
	}
	// Pad the sample past 20 000 with a second sharing of the same secrets.
	again := ShamirShareVec(vs, tt, n)
	for e, want := range vs {
		coeffs = append(coeffs, Sub(again[0][e].Y, want))
	}
	checkRandomShares(t, "Shamir", coeffs)
}

func TestFeStreamRejectsP(t *testing.T) {
	buf := make([]byte, streamBytes)
	binary.LittleEndian.PutUint64(buf[0:], math.MaxUint64) // masks to P
	binary.LittleEndian.PutUint64(buf[8:], uint64(P))
	binary.LittleEndian.PutUint64(buf[16:], 42|1<<63) // bits above 61 are dropped
	s := &feStream{src: bytes.NewReader(buf), pos: streamBytes}
	if got := s.next(); got != 42 {
		t.Fatalf("first element = %d, want 42 (two encodings of P rejected)", got)
	}
	if s.pos != 24 {
		t.Fatalf("stream consumed %d bytes, want 24", s.pos)
	}
	if got := s.next(); got != 0 {
		t.Fatalf("second element = %d, want 0", got)
	}
}

func TestImportSecretAllocs(t *testing.T) {
	vals := make([]float64, 4096)
	for i := range vals {
		vals[i] = float64(i) / 8
	}
	for _, scheme := range []Scheme{FullThreshold, ShamirScheme} {
		c := newTestCluster(t, scheme, 3)
		allocs := testing.AllocsPerRun(20, func() {
			if err := c.ImportSecret("allocs", "w", vals); err != nil {
				t.Fatal(err)
			}
		})
		c.Discard("allocs")
		if allocs > 8 {
			t.Errorf("%v: ImportSecret of 4096 elements made %.1f allocations, want ≤ 8", scheme, allocs)
		}
	}
}

func TestImportSecretRejectsUnencodable(t *testing.T) {
	for _, scheme := range []Scheme{FullThreshold, ShamirScheme} {
		c := newTestCluster(t, scheme, 3)
		for _, tc := range []struct {
			x    float64
			want string
		}{
			{math.NaN(), "cannot encode NaN"},
			{2 * c.Codec().MaxAbs(), "overflows"},
			{math.Inf(-1), "underflows"},
		} {
			err := c.ImportSecret("bad", "hosp7", []float64{1, 2, tc.x})
			if err == nil {
				t.Fatalf("%v: importing %v succeeded", scheme, tc.x)
			}
			for _, part := range []string{tc.want, `"bad"`, `"hosp7"`, "element 2"} {
				if !strings.Contains(err.Error(), part) {
					t.Fatalf("%v: error %q does not name %s", scheme, err, part)
				}
			}
		}
		if w := c.Workers("bad"); w != nil {
			t.Fatalf("%v: a failed import registered workers %v", scheme, w)
		}
	}
}

func TestDiscardReleasesJob(t *testing.T) {
	c := newTestCluster(t, FullThreshold, 3)
	start := smpcJobs.Value()
	c.ImportSecret("d", "a", []float64{1, 2})
	if smpcJobs.Value() != start+1 {
		t.Fatalf("pending jobs = %v, want %v", smpcJobs.Value(), start+1)
	}
	c.Discard("d")
	c.Discard("d") // unknown jobs are ignored
	if smpcJobs.Value() != start || c.Workers("d") != nil {
		t.Fatalf("after Discard: pending jobs = %v (want %v), workers %v", smpcJobs.Value(), start, c.Workers("d"))
	}
	if _, err := c.Aggregate("d", OpSum, Noise{}); err == nil {
		t.Fatal("a discarded job must not aggregate")
	}
}

// TestConcurrentImportAggregate: four goroutines import into two jobs while
// a third job is aggregated, round after round; every sum must be exact.
// Run under -race it pins the cluster's locking.
func TestConcurrentImportAggregate(t *testing.T) {
	const dim, rounds = 64, 20
	vec := func(w int) []float64 {
		out := make([]float64, dim)
		for e := range out {
			out[e] = float64(1000*w + e)
		}
		return out
	}
	// want is the exact sum of vec(w) over the given workers.
	want := func(e int, ws ...int) float64 {
		s := 0.0
		for _, w := range ws {
			s += float64(1000*w + e)
		}
		return s
	}
	for _, scheme := range []Scheme{FullThreshold, ShamirScheme} {
		c := newTestCluster(t, scheme, 3)
		for r := 0; r < rounds; r++ {
			side := fmt.Sprintf("r%d/side", r)
			for w := 0; w < 2; w++ {
				if err := c.ImportSecret(side, workerName(w), vec(w)); err != nil {
					t.Fatal(err)
				}
			}
			var wg sync.WaitGroup
			var sideSum []float64
			var sideErr error
			wg.Add(5)
			go func() {
				defer wg.Done()
				sideSum, sideErr = c.Aggregate(side, OpSum, Noise{})
			}()
			for g := 0; g < 4; g++ {
				go func(g int) {
					defer wg.Done()
					job := fmt.Sprintf("r%d/job%d", r, g%2)
					if err := c.ImportSecret(job, workerName(g), vec(g)); err != nil {
						t.Error(err)
					}
				}(g)
			}
			wg.Wait()
			if sideErr != nil {
				t.Fatalf("%v round %d: side aggregate: %v", scheme, r, sideErr)
			}
			for k := 0; k < 2; k++ {
				got, err := c.Aggregate(fmt.Sprintf("r%d/job%d", r, k), OpSum, Noise{})
				if err != nil {
					t.Fatalf("%v round %d job %d: %v", scheme, r, k, err)
				}
				for e := range got {
					if w := want(e, k, k+2); got[e] != w || sideSum[e] != want(e, 0, 1) {
						t.Fatalf("%v round %d elem %d: job%d sum %v (want %v), side sum %v (want %v)",
							scheme, r, e, k, got[e], w, sideSum[e], want(e, 0, 1))
					}
				}
			}
		}
	}
}
