package algorithms

import (
	"fmt"
	"math"

	"mip/internal/engine"
	"mip/internal/federation"
	"mip/internal/stats"
)

// Federated k-means (one of the two algorithms the paper's Alzheimer's use
// case runs): Lloyd iterations where each worker assigns its rows to the
// nearest centroid and ships back per-cluster counts, coordinate sums and
// the within-cluster sum of squares; the master recomputes centroids until
// the shift drops under e or iterations_max_number is hit (the dashboard's
// parameters in Figure 4).

func init() {
	federation.RegisterLocal("kmeans_assign", kmeansAssignLocal)
	Register(&KMeans{})
}

func kmeansAssignLocal(wctx *federation.WorkerCtx, data *engine.Table, kwargs federation.Kwargs) (federation.Transfer, error) {
	a, err := decodeVars(kwargs)
	if err != nil {
		return nil, err
	}
	vars, centroids := a.Vars, a.Centroids
	if centroids == nil {
		return nil, fmt.Errorf("algorithms: missing centroids kwarg")
	}
	k := len(centroids)
	p := len(vars)
	cols := make([][]float64, p)
	for i, v := range vars {
		c, err := floatCol(data, v)
		if err != nil {
			return nil, err
		}
		cols[i] = c
	}
	n := 0
	if p > 0 {
		n = len(cols[0])
	}
	counts := make([]float64, k)
	sums := make([]float64, k*p) // clusters × variables
	var wss float64
	for r := 0; r < n; r++ {
		best, bestD := 0, math.Inf(1)
		for c := 0; c < k; c++ {
			var d float64
			for j := 0; j < p; j++ {
				diff := cols[j][r] - centroids[c][j]
				d += diff * diff
			}
			if d < bestD {
				best, bestD = c, d
			}
		}
		counts[best]++
		for j := 0; j < p; j++ {
			sums[best*p+j] += cols[j][r]
		}
		wss += bestD
	}
	return federation.Transfer{"counts": federation.Vector(counts), "sums": federation.Matrix(k, p, sums),
		"wss": federation.Scalar(wss)}, nil
}

// KMeansResult is the clustering output.
type KMeansResult struct {
	Centroids  [][]float64 `json:"centroids"`
	Sizes      []float64   `json:"sizes"`
	WSS        float64     `json:"wss"`
	Iterations int         `json:"iterations"`
	Converged  bool        `json:"converged"`
	Variables  []string    `json:"variables"`
}

// KMeans implements federated k-means clustering.
type KMeans struct{}

// Spec implements Algorithm.
func (*KMeans) Spec() Spec {
	return Spec{
		Name:  "kmeans",
		Label: "k-Means Clustering",
		Desc:  "Federated Lloyd iterations over real/integer variables; matches the dashboard's k, e and iterations_max_number parameters.",
		Y:     VarSpec{Min: 1, Types: []string{"real", "integer"}, Doc: "clustering variables"},
		Parameters: []ParamSpec{
			{Name: "k", Label: "Number of centers", Type: "int", Default: 3, Min: 1, Max: 100},
			{Name: "e", Label: "Convergence tolerance", Type: "real", Default: 0.01, Min: 0},
			{Name: "iterations_max_number", Label: "Max iterations", Type: "int", Default: 1000, Min: 1},
			{Name: "standardize", Label: "Standardize variables", Type: "enum", Enum: []string{"true", "false"}, Default: "true"},
		},
	}
}

// Run implements Algorithm.
func (a *KMeans) Run(sess *federation.Session, req Request) (Result, error) {
	if err := requireVars(a.Spec(), req); err != nil {
		return nil, err
	}
	k := req.ParamInt("k", 3)
	if k < 1 {
		return nil, fmt.Errorf("algorithms: k must be >= 1")
	}
	tol := req.ParamFloat("e", 0.01)
	maxIter := req.ParamInt("iterations_max_number", 1000)
	p := len(req.Y)

	// Bootstrap round: global moments (for standardization) and min/max
	// (for centroid seeding) via the descriptive summary step.
	summary, err := sess.Aggregate(federation.LocalRunSpec{
		Func:   "desc_summary",
		Vars:   req.Y,
		Filter: req.Filter,
		Kwargs: varsArgs{Vars: req.Y},
	})
	if err != nil {
		return nil, err
	}
	m, _ := summary.Floats("moments")
	mins, _ := summary.Floats("mins")
	maxs, _ := summary.Floats("maxs")

	var totalN float64
	means := make([]float64, p)
	sds := make([]float64, p)
	for j := 0; j < p; j++ {
		n, s, s2 := m[j*4], m[j*4+2], m[j*4+3]
		totalN = n
		if n < float64(k) {
			return nil, fmt.Errorf("algorithms: %v observations cannot support k=%d", n, k)
		}
		means[j] = s / n
		v := (s2 - s*s/n) / (n - 1)
		if v <= 0 {
			v = 1
		}
		sds[j] = math.Sqrt(v)
	}

	// Deterministic seeding: spread the k centroids along the diagonal of
	// the global bounding box, jittered per dimension by a seeded RNG so
	// ties break.
	rng := stats.NewRNG(int64(req.ParamInt("seed", 42)))
	centroids := make([][]float64, k)
	for c := 0; c < k; c++ {
		centroids[c] = make([]float64, p)
		frac := (float64(c) + 0.5) / float64(k)
		for j := 0; j < p; j++ {
			span := maxs[j] - mins[j]
			centroids[c][j] = mins[j] + frac*span + rng.Normal(0, 0.02*span+1e-12)
		}
	}

	res := KMeansResult{Variables: req.Y}
	for iter := 1; iter <= maxIter; iter++ {
		agg, err := sess.Aggregate(federation.LocalRunSpec{
			Func:   "kmeans_assign",
			Vars:   req.Y,
			Filter: req.Filter,
			Kwargs: varsArgs{Vars: req.Y, Centroids: centroids},
		})
		if err != nil {
			return nil, err
		}
		counts, _ := agg.Floats("counts")
		sums, err := agg.Matrix("sums")
		if err != nil {
			return nil, err
		}
		wss, _ := agg.Float("wss")

		var shift float64
		next := make([][]float64, k)
		for c := 0; c < k; c++ {
			next[c] = make([]float64, p)
			if counts[c] == 0 {
				// Re-seed an empty cluster at a jittered global mean.
				for j := 0; j < p; j++ {
					next[c][j] = means[j] + rng.Normal(0, sds[j])
				}
			} else {
				for j := 0; j < p; j++ {
					next[c][j] = sums[c][j] / counts[c]
				}
			}
			for j := 0; j < p; j++ {
				d := next[c][j] - centroids[c][j]
				shift += d * d
			}
		}
		centroids = next
		res.Sizes = counts
		res.WSS = wss
		res.Iterations = iter
		if math.Sqrt(shift) < tol {
			res.Converged = true
			break
		}
	}
	res.Centroids = centroids
	_ = totalN
	return Result{"kmeans": res}, nil
}
