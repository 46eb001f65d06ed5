package federation

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// A NaN cannot be secret-shared: the step must fail loudly rather than
// import it as 0, and the shares other workers imported must not linger.
// test_nan_moment (registered in wire_test.go) emits {"m": NaN}.
func TestSecureImportRejectsNaN(t *testing.T) {
	m, _ := buildFed(t, true)
	s, err := m.NewSession(nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.Aggregate(LocalRunSpec{Func: "test_nan_moment", Vars: []string{"age"}})
	if err == nil || !strings.Contains(err.Error(), "cannot encode NaN") {
		t.Fatalf("secure sum of a NaN moment = %v, %v; want a cannot-encode-NaN error", out, err)
	}
	if w := m.smpc.Workers(s.ID() + "/step-1/sum"); w != nil {
		t.Fatalf("failed step left shares from %v in the cluster", w)
	}
}

// pooledSums recomputes, straight from newWorkerDB's generator, what the
// test_sums step over complete (age, mmse) cases gives on buildFed's three
// hospitals pooled into one table: the row count and the two column sums.
func pooledSums() (n float64, sums []float64) {
	sums = make([]float64, 2)
	for i := 0; i < 3; i++ {
		base := float64(i)
		for r := 0; r < 40+10*i; r++ {
			if r%13 == 0 {
				continue // mmse is NULL
			}
			n++
			sums[0] += 50 + base + float64(r%40)
			sums[1] += base + float64(r%30)
		}
	}
	return n, sums
}

// TestConcurrentSecureExperiments runs two experiments' secure sums at once
// over one cluster (the imports of six worker steps interleave); each must
// stay within 1e-3 of the pooled answer. Run under -race.
func TestConcurrentSecureExperiments(t *testing.T) {
	m, _ := buildFed(t, true)
	wantN, wantSums := pooledSums()
	const steps = 5
	var wg sync.WaitGroup
	for x := 0; x < 2; x++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := m.NewSession(nil)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < steps; i++ {
				got, err := s.Aggregate(LocalRunSpec{Func: "test_sums", Vars: []string{"age", "mmse"}})
				if err != nil {
					t.Error(err)
					return
				}
				n, _ := got.Float("n")
				sums, _ := got.Floats("sums")
				if math.Abs(n-wantN) > 1e-3 || len(sums) != 2 ||
					math.Abs(sums[0]-wantSums[0]) > 1e-3 || math.Abs(sums[1]-wantSums[1]) > 1e-3 {
					t.Errorf("%s step %d: n=%v sums=%v, pooled n=%v sums=%v", s.ID(), i, n, sums, wantN, wantSums)
					return
				}
			}
		}()
	}
	wg.Wait()
}
