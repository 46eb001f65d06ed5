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

// levelsFromKwargs reads the map[var][]string level directory the master
// passes to local steps (JSON round-trips deliver map[string]any).
func levelsFromKwargs(kwargs federation.Kwargs, key string) (map[string][]string, error) {
	raw, ok := kwargs[key]
	if !ok || raw == nil {
		return map[string][]string{}, nil
	}
	switch m := raw.(type) {
	case map[string][]string:
		return m, nil
	case map[string]any:
		out := make(map[string][]string, len(m))
		for k, v := range m {
			switch vs := v.(type) {
			case []string:
				out[k] = vs
			case []any:
				var ss []string
				for _, e := range vs {
					s, ok := e.(string)
					if !ok {
						return nil, fmt.Errorf("algorithms: levels for %q contain %T", k, e)
					}
					ss = append(ss, s)
				}
				out[k] = ss
			default:
				return nil, fmt.Errorf("algorithms: levels for %q are %T", k, v)
			}
		}
		return out, nil
	}
	return nil, fmt.Errorf("algorithms: kwarg %q is %T, not a levels map", key, raw)
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
