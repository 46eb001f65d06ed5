package algorithms

import (
	"fmt"
	"math"

	"mip/internal/engine"
	"mip/internal/federation"
	"mip/internal/stats"
)

// PCA: one aggregation round collects n, per-variable sums and the raw
// cross-product matrix ΣxxT; the master standardizes it into the
// correlation matrix and diagonalizes with the Jacobi eigensolver.

func init() {
	federation.RegisterLocal("pca_local", pcaLocal)
	Register(&PCA{})
}

func pcaLocal(wctx *federation.WorkerCtx, data *engine.Table, kwargs federation.Kwargs) (federation.Transfer, error) {
	a, err := decodeVars(kwargs)
	if err != nil {
		return nil, err
	}
	vars := a.Vars
	cols := make([][]float64, len(vars))
	for i, v := range vars {
		c, err := floatCol(data, v)
		if err != nil {
			return nil, err
		}
		cols[i] = c
	}
	p := len(vars)
	n := 0
	if p > 0 {
		n = len(cols[0])
	}
	sums := make([]float64, p)
	cross := make([]float64, p*p)
	for r := 0; r < n; r++ {
		for i := 0; i < p; i++ {
			xi := cols[i][r]
			sums[i] += xi
			for j := i; j < p; j++ {
				cross[i*p+j] += xi * cols[j][r]
			}
		}
	}
	for i := 0; i < p; i++ {
		for j := 0; j < i; j++ {
			cross[i*p+j] = cross[j*p+i]
		}
	}
	return federation.Transfer{"n": federation.Scalar(float64(n)), "sums": federation.Vector(sums),
		"cross": federation.Matrix(p, p, cross)}, nil
}

// PCAResult is the decomposition output.
type PCAResult struct {
	Variables         []string    `json:"variables"`
	Eigenvalues       []float64   `json:"eigenvalues"`
	ExplainedVariance []float64   `json:"explained_variance"`
	Cumulative        []float64   `json:"cumulative_variance"`
	Loadings          [][]float64 `json:"loadings"` // [component][variable]
	N                 int         `json:"n"`
}

// PCA implements principal component analysis on the federated
// correlation matrix.
type PCA struct{}

// Spec implements Algorithm.
func (*PCA) Spec() Spec {
	return Spec{
		Name:  "pca",
		Label: "Principal Components Analysis",
		Desc:  "PCA of the federated correlation matrix of the Y variables.",
		Y:     VarSpec{Min: 2, Types: []string{"real", "integer"}},
	}
}

// Run implements Algorithm.
func (a *PCA) Run(sess *federation.Session, req Request) (Result, error) {
	if err := requireVars(a.Spec(), req); err != nil {
		return nil, err
	}
	agg, err := sess.Aggregate(federation.LocalRunSpec{
		Func:   "pca_local",
		Vars:   req.Y,
		Filter: req.Filter,
		Kwargs: varsArgs{Vars: req.Y},
	})
	if err != nil {
		return nil, err
	}
	n, _ := agg.Float("n")
	sums, _ := agg.Floats("sums")
	crossRows, err := agg.Matrix("cross")
	if err != nil {
		return nil, err
	}
	p := len(req.Y)
	if n < float64(p)+1 {
		return nil, fmt.Errorf("algorithms: PCA needs more observations than variables (n=%v p=%d)", n, p)
	}
	// Covariance then correlation.
	cov := stats.NewDense(p, p)
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			cov.Set(i, j, (crossRows[i][j]-sums[i]*sums[j]/n)/(n-1))
		}
	}
	corr := stats.NewDense(p, p)
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			d := math.Sqrt(cov.At(i, i) * cov.At(j, j))
			if d == 0 {
				return nil, fmt.Errorf("algorithms: variable %q has zero variance", req.Y[i])
			}
			corr.Set(i, j, cov.At(i, j)/d)
		}
	}
	vals, vecs, err := stats.EigenSym(corr)
	if err != nil {
		return nil, err
	}
	res := PCAResult{Variables: req.Y, Eigenvalues: vals, N: int(n)}
	total := 0.0
	for _, v := range vals {
		if v > 0 {
			total += v
		}
	}
	cum := 0.0
	for ci := 0; ci < p; ci++ {
		ev := vals[ci] / total
		cum += ev
		res.ExplainedVariance = append(res.ExplainedVariance, ev)
		res.Cumulative = append(res.Cumulative, cum)
		loading := make([]float64, p)
		for vi := 0; vi < p; vi++ {
			loading[vi] = vecs.At(vi, ci)
		}
		res.Loadings = append(res.Loadings, loading)
	}
	return Result{"pca": res}, nil
}
