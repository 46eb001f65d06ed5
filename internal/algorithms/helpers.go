package algorithms

import (
	"fmt"
	"math"

	"mip/internal/engine"
	"mip/internal/federation"
	"mip/internal/stats"
)

// finiteOrNull is how result types marshal a statistic that may be
// undefined: encoding/json rejects NaN and ±Inf, which would fail the whole
// result envelope, so those cells become JSON null.
func finiteOrNull(x float64) *float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return nil
	}
	return &x
}

// floatCol extracts a complete (non-NULL) float column from a local step's
// relation input. The session's data query already applies complete-cases
// filtering, so NULLs here indicate a caller bug.
func floatCol(data *engine.Table, name string) ([]float64, error) {
	v := data.ColByName(name)
	if v == nil {
		return nil, fmt.Errorf("algorithms: relation input missing column %q", name)
	}
	f := v.CastFloat64()
	out := make([]float64, f.Len())
	copy(out, f.Float64s())
	for i := 0; i < f.Len(); i++ {
		if f.IsNull(i) {
			return nil, fmt.Errorf("algorithms: unexpected NULL in %q at row %d", name, i)
		}
	}
	return out, nil
}

// stringCol extracts a string column.
func stringCol(data *engine.Table, name string) ([]string, error) {
	v := data.ColByName(name)
	if v == nil {
		return nil, fmt.Errorf("algorithms: relation input missing column %q", name)
	}
	return data.StringColumn(name)
}

// varsArgs are the kwargs of the steps over a list of numeric variables:
// descriptive moments, extremes and histograms (which also take the global
// bounds), the paired t-test, PCA and the k-means assignment (which also
// takes the centroids).
type varsArgs struct {
	Vars      []string    `json:"vars"`
	Mins      []float64   `json:"mins,omitempty"`
	Maxs      []float64   `json:"maxs,omitempty"`
	Centroids [][]float64 `json:"centroids,omitempty"`
}

func decodeVars(kwargs federation.Kwargs) (varsArgs, error) {
	var a varsArgs
	if err := kwargs.Decode(&a); err != nil {
		return a, err
	}
	if a.Vars == nil {
		return a, fmt.Errorf("algorithms: missing vars kwarg")
	}
	return a, nil
}

// foldArgs select cross-validation rows by their stable row_id. With
// NumFolds set, mode "only" keeps the rows of fold Fold (held-out scoring)
// and any other mode the rows outside it (training); without it every row
// is kept.
type foldArgs struct {
	Fold     int    `json:"fold,omitempty"`
	NumFolds int    `json:"num_folds,omitempty"`
	FoldMode string `json:"fold_mode,omitempty"`
}

// selector reports whether the fold selection keeps row r of data.
func (f foldArgs) selector(data *engine.Table) (func(r int) bool, error) {
	if f.NumFolds == 0 {
		return func(int) bool { return true }, nil
	}
	if f.NumFolds < 2 {
		return nil, fmt.Errorf("algorithms: fold filtering needs num_folds > 1")
	}
	ids := data.ColByName("row_id")
	if ids == nil {
		return nil, fmt.Errorf("algorithms: cross-validation requires a row_id column")
	}
	iv := ids.CastFloat64().Float64s()
	return func(r int) bool {
		return (foldOf(int64(iv[r]), f.NumFolds) == f.Fold) == (f.FoldMode == "only")
	}, nil
}

// modelArgs are the kwargs of the regression-family steps (linear and
// logistic fit and score): the outcome, the covariates with the levels of
// the nominal ones, the cross-validation fold, the current coefficients
// and, for logistic models, the positive outcome level.
type modelArgs struct {
	Y      string              `json:"y"`
	X      []string            `json:"x"`
	Levels map[string][]string `json:"levels,omitempty"`
	foldArgs
	Beta     []float64 `json:"beta,omitempty"`
	PosLevel string    `json:"pos_level,omitempty"`
}

func decodeModel(kwargs federation.Kwargs) (modelArgs, error) {
	var a modelArgs
	if err := kwargs.Decode(&a); err != nil {
		return a, err
	}
	if a.Y == "" {
		return a, fmt.Errorf("algorithms: missing y kwarg")
	}
	if a.X == nil {
		return a, fmt.Errorf("algorithms: missing x kwarg")
	}
	return a, nil
}

// rows materializes the step's design matrix and the outcome (yOf maps a
// row index to its value) over the rows the design and the fold keep.
func (a modelArgs) rows(data *engine.Table, yOf func(r int) float64) (*stats.Dense, []float64, error) {
	x, keep, err := newDesign(a.X, a.Levels).rows(data)
	if err != nil {
		return nil, nil, err
	}
	use, err := a.selector(data)
	if err != nil {
		return nil, nil, err
	}
	var rows []int
	for i, r := range keep {
		if use(r) {
			rows = append(rows, i)
		}
	}
	fx := stats.NewDense(len(rows), x.Cols())
	y := make([]float64, len(rows))
	for i, r := range rows {
		copy(fx.Row(i), x.Row(r))
		y[i] = yOf(keep[r])
	}
	return fx, y, nil
}

// denseTensor ships a matrix as a transfer entry without copying it.
func denseTensor(m *stats.Dense) federation.Tensor {
	return federation.Matrix(m.Rows(), m.Cols(), m.Data())
}

// aggDense reads a matrix entry of an aggregate as a matrix over its data.
func aggDense(t federation.Transfer, key string) (*stats.Dense, error) {
	if _, err := t.Matrix(key); err != nil {
		return nil, err
	}
	v := t[key]
	return stats.NewDenseData(v.Shape[0], v.Shape[1], v.Data), nil
}

// design holds the design-matrix layout shared by the regression-family
// algorithms: an intercept, the numeric covariates as-is, and drop-first
// dummy coding for nominal covariates (levels fixed by the master so all
// workers agree on column order).
type design struct {
	XVars  []string
	Levels map[string][]string
	// Names are the final column names: intercept, then per covariate
	// either the variable name or "var=level" dummies.
	Names []string
}

// newDesign computes the layout.
func newDesign(xvars []string, levels map[string][]string) design {
	d := design{XVars: xvars, Levels: levels, Names: []string{"intercept"}}
	for _, v := range xvars {
		if lv, nominal := levels[v]; nominal {
			for _, l := range lv[1:] { // drop first level (reference)
				d.Names = append(d.Names, v+"="+l)
			}
			continue
		}
		d.Names = append(d.Names, v)
	}
	return d
}

// Width is the number of design columns.
func (d design) Width() int { return len(d.Names) }

// rows materializes the design matrix for a local data slice. Rows whose
// nominal value is not in the declared levels are skipped (their index is
// reported in dropped).
func (d design) rows(data *engine.Table) (x *stats.Dense, keep []int, err error) {
	n := data.NumRows()
	type colGetter func(row int) (float64, bool)
	var getters []colGetter

	for _, v := range d.XVars {
		if lv, nominal := d.Levels[v]; nominal {
			ss, err := stringCol(data, v)
			if err != nil {
				return nil, nil, err
			}
			index := make(map[string]int, len(lv))
			for i, l := range lv {
				index[l] = i
			}
			for li := 1; li < len(lv); li++ {
				li := li
				getters = append(getters, func(row int) (float64, bool) {
					idx, ok := index[ss[row]]
					if !ok {
						return 0, false
					}
					if idx == li {
						return 1, true
					}
					return 0, true
				})
			}
			continue
		}
		fs, err := floatCol(data, v)
		if err != nil {
			return nil, nil, err
		}
		getters = append(getters, func(row int) (float64, bool) { return fs[row], true })
	}

	var rows [][]float64
	for i := 0; i < n; i++ {
		row := make([]float64, d.Width())
		row[0] = 1
		ok := true
		for g, get := range getters {
			v, valid := get(i)
			if !valid {
				ok = false
				break
			}
			row[g+1] = v
		}
		if !ok {
			continue
		}
		keep = append(keep, i)
		rows = append(rows, row)
	}
	x = stats.NewDense(len(rows), d.Width())
	for i, r := range rows {
		copy(x.Row(i), r)
	}
	return x, keep, nil
}

// sqSum is Σx², used across moment computations.
func sqSum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x * x
	}
	return s
}

// sum is Σx.
func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// round4 trims long floating tails for presentation-grade result maps.
func round4(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return x
	}
	return math.Round(x*1e4) / 1e4
}

// foldOf deterministically assigns a row to one of k cross-validation
// folds from its stable row id — every worker computes the same assignment
// without coordination.
func foldOf(rowID int64, k int) int {
	// SplitMix64 finalizer for good dispersion of sequential ids.
	z := uint64(rowID) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % uint64(k))
}
