package main

import (
	"fmt"
	"math"
	"sort"

	"mip/internal/smpc"
	"mip/internal/stats"
)

func init() {
	register("a1", "Ablation: fixed-point fractional bits vs SMPC accuracy and range", runA1)
	register("a2", "Ablation: quantile-histogram bins vs descriptive-statistics accuracy", runA2)
}

// A1 — the SMPC codec's fractional-bit budget trades resolution against
// the representable magnitude (the 61-bit field is split between them).
func runA1() {
	const workers, dim = 4, 512
	rng := stats.NewRNG(17)
	vec := make([]float64, dim)
	for i := range vec {
		vec[i] = rng.Normal(0, 100)
	}
	want := make([]float64, dim)
	for i := range want {
		want[i] = vec[i] * workers
	}
	fmt.Printf("secure sum of %d-dim N(0,100) vectors from %d workers\n\n", dim, workers)
	fmt.Printf("%10s %16s %16s %16s\n", "frac bits", "resolution", "max |x| allowed", "max abs error")
	for _, bits := range []uint{8, 12, 16, 20, 24, 28} {
		c, err := smpc.NewCluster(smpc.Config{Scheme: smpc.ShamirScheme, Nodes: 3, FracBits: bits, Seed: 2})
		fatalIf(err)
		for w := 0; w < workers; w++ {
			fatalIf(c.ImportSecret("a1", fmt.Sprintf("w%d", w), vec))
		}
		got, err := c.Aggregate("a1", smpc.OpSum, smpc.Noise{})
		fatalIf(err)
		var maxErr float64
		for i := range got {
			if e := math.Abs(got[i] - want[i]); e > maxErr {
				maxErr = e
			}
		}
		codec := c.Codec()
		fmt.Printf("%10d %16.2e %16.3e %16.2e\n", bits, codec.Resolution(), codec.MaxAbs(), maxErr)
	}
	fmt.Println("\nthe default (20 bits, ~1e-6 resolution, ~1.1e12 range) keeps every algorithm's")
	fmt.Println("aggregates exact to ≲1e-4 while leaving room for ~thousands of workers' sums;")
	fmt.Println("8 bits visibly corrupts means, 28 bits narrows the range toward overflow.")
}

// A2 — the federated quartiles come from an equal-width histogram; bins
// trade one extra round's payload size against quantile error.
func runA2() {
	const n = 20000
	rng := stats.NewRNG(23)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Gamma(2, 30) // skewed, like biomarker distributions
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	exactQ := []float64{
		stats.QuantileSorted(sorted, 0.25),
		stats.QuantileSorted(sorted, 0.50),
		stats.QuantileSorted(sorted, 0.75),
	}
	lo, hi := sorted[0], sorted[n-1]

	fmt.Printf("quartiles of a Gamma(2,30) sample (n=%d) from an equal-width histogram\n\n", n)
	fmt.Printf("%8s %14s %14s %14s %16s\n", "bins", "|Q1 err|", "|Q2 err|", "|Q3 err|", "payload (bytes)")
	for _, bins := range []int{16, 64, 256, 1024, 4096} {
		counts := make([]float64, bins)
		width := hi - lo
		for _, x := range xs {
			b := int((x - lo) / width * float64(bins))
			if b >= bins {
				b = bins - 1
			}
			counts[b]++
		}
		var errs [3]float64
		for qi, q := range []float64{0.25, 0.5, 0.75} {
			got := histQuantileLocal(counts, lo, hi, q)
			errs[qi] = math.Abs(got - exactQ[qi])
		}
		fmt.Printf("%8d %14.4f %14.4f %14.4f %16d\n", bins, errs[0], errs[1], errs[2], bins*8)
	}
	fmt.Println("\nthe platform's 256-bin default keeps quartile error below range/256 (≈0.4%")
	fmt.Println("of the spread) for one 2 KiB payload per variable per worker — the privacy win")
	fmt.Println("(no order statistics leave the hospital) costs almost nothing in accuracy.")
}

// histQuantileLocal mirrors the algorithm package's interpolation.
func histQuantileLocal(counts []float64, lo, hi, q float64) float64 {
	var total float64
	for _, c := range counts {
		total += c
	}
	target := q * total
	var cum float64
	width := (hi - lo) / float64(len(counts))
	for b, c := range counts {
		if cum+c >= target && c > 0 {
			frac := (target - cum) / c
			return lo + (float64(b)+frac)*width
		}
		cum += c
	}
	return hi
}
