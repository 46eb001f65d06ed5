package algorithms

import (
	"encoding/json"
	"fmt"
	"math"

	"mip/internal/engine"
	"mip/internal/federation"
)

// Descriptive statistics: the dashboard table of Figure 3 — per dataset
// and per variable: Datapoints, NA, SE, mean, std, min, Q1, Q2, Q3, max.
//
// Flow (per dataset): one moments round (sum-aggregated), a min and a max
// round, then a histogram round whose bin counts (sum-aggregated) yield the
// quartiles by interpolation. Every transfer is a fixed-shape numeric
// vector, so the whole algorithm runs unchanged over SMPC.

// histBins is the quantile histogram resolution: quartiles are exact to
// (max−min)/histBins.
const histBins = 256

func init() {
	federation.RegisterLocal("desc_moments", descMomentsLocal)
	federation.RegisterLocal("desc_min", descMinLocal)
	federation.RegisterLocal("desc_max", descMaxLocal)
	federation.RegisterLocal("desc_hist", descHistLocal)
	Register(&Descriptive{})
}

// descMomentsLocal returns, per requested variable, the additive moments
// [n, na, sum, sum2] as one flat vector (variables × 4).
func descMomentsLocal(wctx *federation.WorkerCtx, data *engine.Table, kwargs federation.Kwargs) (federation.Transfer, error) {
	vars, err := kwVars(kwargs)
	if err != nil {
		return nil, err
	}
	out := make([]float64, 0, len(vars)*4)
	for _, name := range vars {
		v := data.ColByName(name)
		if v == nil {
			return nil, fmt.Errorf("algorithms: no variable %q", name)
		}
		f := v.CastFloat64()
		var n, na, s, s2 float64
		for i := 0; i < f.Len(); i++ {
			if f.IsNull(i) {
				na++
				continue
			}
			x := f.Float64s()[i]
			n++
			s += x
			s2 += x * x
		}
		out = append(out, n, na, s, s2)
	}
	return federation.Transfer{"moments": out}, nil
}

// descMinLocal returns per-variable minima (or +huge when the worker has
// no values, so the min fold ignores it).
func descMinLocal(wctx *federation.WorkerCtx, data *engine.Table, kwargs federation.Kwargs) (federation.Transfer, error) {
	return descExtreme(data, kwargs, true)
}

// descMaxLocal returns per-variable maxima.
func descMaxLocal(wctx *federation.WorkerCtx, data *engine.Table, kwargs federation.Kwargs) (federation.Transfer, error) {
	return descExtreme(data, kwargs, false)
}

// sentinel bounds keep empty workers neutral in min/max folds while
// staying inside the SMPC fixed-point range.
const extremeSentinel = 1e12

func descExtreme(data *engine.Table, kwargs federation.Kwargs, wantMin bool) (federation.Transfer, error) {
	vars, err := kwVars(kwargs)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(vars))
	for vi, name := range vars {
		v := data.ColByName(name)
		if v == nil {
			return nil, fmt.Errorf("algorithms: no variable %q", name)
		}
		f := v.CastFloat64()
		best := math.Inf(1)
		if !wantMin {
			best = math.Inf(-1)
		}
		for i := 0; i < f.Len(); i++ {
			if f.IsNull(i) {
				continue
			}
			x := f.Float64s()[i]
			if wantMin && x < best || !wantMin && x > best {
				best = x
			}
		}
		if math.IsInf(best, 0) {
			best = extremeSentinel
			if !wantMin {
				best = -extremeSentinel
			}
		}
		out[vi] = best
	}
	key := "mins"
	if !wantMin {
		key = "maxs"
	}
	return federation.Transfer{key: out}, nil
}

// descHistLocal bins each variable into histBins equal-width bins over the
// global [min, max] passed down by the master.
func descHistLocal(wctx *federation.WorkerCtx, data *engine.Table, kwargs federation.Kwargs) (federation.Transfer, error) {
	vars, err := kwVars(kwargs)
	if err != nil {
		return nil, err
	}
	mins, err := kw(kwargs).Floats("mins")
	if err != nil {
		return nil, err
	}
	maxs, err := kw(kwargs).Floats("maxs")
	if err != nil {
		return nil, err
	}
	counts := make([][]float64, len(vars))
	for vi, name := range vars {
		counts[vi] = make([]float64, histBins)
		v := data.ColByName(name)
		if v == nil {
			return nil, fmt.Errorf("algorithms: no variable %q", name)
		}
		f := v.CastFloat64()
		lo, hi := mins[vi], maxs[vi]
		width := hi - lo
		for i := 0; i < f.Len(); i++ {
			if f.IsNull(i) {
				continue
			}
			x := f.Float64s()[i]
			b := 0
			if width > 0 {
				b = int((x - lo) / width * float64(histBins))
				if b < 0 {
					b = 0
				}
				if b >= histBins {
					b = histBins - 1
				}
			}
			counts[vi][b]++
		}
	}
	return federation.Transfer{"hist": counts}, nil
}

func kwVars(kwargs federation.Kwargs) ([]string, error) {
	raw, ok := kwargs["vars"]
	if !ok {
		return nil, fmt.Errorf("algorithms: missing vars kwarg")
	}
	switch v := raw.(type) {
	case []string:
		return v, nil
	case []any:
		out := make([]string, len(v))
		for i, e := range v {
			s, ok := e.(string)
			if !ok {
				return nil, fmt.Errorf("algorithms: vars[%d] is %T", i, e)
			}
			out[i] = s
		}
		return out, nil
	}
	return nil, fmt.Errorf("algorithms: vars kwarg is %T", raw)
}

// VariableSummary is one row of the Figure 3 table.
type VariableSummary struct {
	Variable   string  `json:"variable"`
	Datapoints float64 `json:"datapoints"`
	NA         float64 `json:"na"`
	Mean       float64 `json:"mean"`
	SE         float64 `json:"se"`
	Std        float64 `json:"std"`
	Min        float64 `json:"min"`
	Q1         float64 `json:"q1"`
	Q2         float64 `json:"q2"`
	Q3         float64 `json:"q3"`
	Max        float64 `json:"max"`
}

// MarshalJSON renders the statistics an empty or single-row group leaves
// undefined as JSON null.
func (s VariableSummary) MarshalJSON() ([]byte, error) {
	type summary VariableSummary // the fields without this method
	return json.Marshal(struct {
		summary
		Mean *float64 `json:"mean"`
		SE   *float64 `json:"se"`
		Std  *float64 `json:"std"`
		Min  *float64 `json:"min"`
		Q1   *float64 `json:"q1"`
		Q2   *float64 `json:"q2"`
		Q3   *float64 `json:"q3"`
		Max  *float64 `json:"max"`
	}{summary(s), finiteOrNull(s.Mean), finiteOrNull(s.SE), finiteOrNull(s.Std), finiteOrNull(s.Min),
		finiteOrNull(s.Q1), finiteOrNull(s.Q2), finiteOrNull(s.Q3), finiteOrNull(s.Max)})
}

// Descriptive implements the descriptive-statistics algorithm.
type Descriptive struct{}

// Spec implements Algorithm.
func (*Descriptive) Spec() Spec {
	return Spec{
		Name:  "descriptive_stats",
		Label: "Descriptive Statistics",
		Desc:  "Datapoints, NA, mean, SE, std, min, quartiles and max for the variables of interest, per dataset and overall.",
		Y:     VarSpec{Min: 1, Types: []string{"real", "integer"}, Doc: "variables to describe"},
	}
}

// Run implements Algorithm. The result maps each dataset (plus "all") to a
// list of VariableSummary rows.
func (*Descriptive) Run(sess *federation.Session, req Request) (Result, error) {
	if err := requireVars((&Descriptive{}).Spec(), req); err != nil {
		return nil, err
	}
	perDataset := map[string][]VariableSummary{}
	groups := make([][]string, 0, len(req.Datasets)+1)
	names := make([]string, 0, len(req.Datasets)+1)
	for _, d := range req.Datasets {
		groups = append(groups, []string{d})
		names = append(names, d)
	}
	groups = append(groups, req.Datasets)
	names = append(names, "all")

	for gi, ds := range groups {
		rows, err := describeOnce(sess, req, ds)
		if err != nil {
			return nil, err
		}
		perDataset[names[gi]] = rows
	}
	return Result{"datasets": perDataset, "variables": req.Y}, nil
}

func describeOnce(sess *federation.Session, req Request, datasets []string) ([]VariableSummary, error) {
	filter := datasetFilter(datasets, req.Filter)
	spec := federation.LocalRunSpec{
		Func:   "desc_moments",
		Vars:   req.Y,
		Filter: filter,
		KeepNA: true, // NA counting needs the incomplete rows
		Kwargs: federation.Kwargs{"vars": req.Y},
	}
	moments, err := sess.Sum(spec, "moments")
	if err != nil {
		return nil, err
	}
	m, err := moments.Floats("moments")
	if err != nil {
		return nil, err
	}
	spec.Func = "desc_min"
	minsT, err := sess.Min(spec, "mins")
	if err != nil {
		return nil, err
	}
	spec.Func = "desc_max"
	maxsT, err := sess.Max(spec, "maxs")
	if err != nil {
		return nil, err
	}
	mins, _ := minsT.Floats("mins")
	maxs, _ := maxsT.Floats("maxs")

	histSpec := spec
	histSpec.Func = "desc_hist"
	histSpec.Kwargs = federation.Kwargs{"vars": req.Y, "mins": mins, "maxs": maxs}
	histT, err := sess.Sum(histSpec, "hist")
	if err != nil {
		return nil, err
	}
	hist, err := histT.Matrix("hist")
	if err != nil {
		return nil, err
	}

	out := make([]VariableSummary, len(req.Y))
	for vi, name := range req.Y {
		n, na, s, s2 := m[vi*4], m[vi*4+1], m[vi*4+2], m[vi*4+3]
		row := VariableSummary{Variable: name, Datapoints: n, NA: na}
		if n == 0 {
			row.Mean, row.SE, row.Std = math.NaN(), math.NaN(), math.NaN()
			row.Min, row.Q1, row.Q2, row.Q3, row.Max = math.NaN(), math.NaN(), math.NaN(), math.NaN(), math.NaN()
			out[vi] = row
			continue
		}
		row.Mean = s / n
		if n > 1 {
			variance := (s2 - s*s/n) / (n - 1)
			if variance < 0 {
				variance = 0
			}
			row.Std = math.Sqrt(variance)
			row.SE = row.Std / math.Sqrt(n)
		} else {
			row.Std, row.SE = math.NaN(), math.NaN()
		}
		row.Min, row.Max = mins[vi], maxs[vi]
		row.Q1 = histQuantile(hist[vi], mins[vi], maxs[vi], 0.25)
		row.Q2 = histQuantile(hist[vi], mins[vi], maxs[vi], 0.50)
		row.Q3 = histQuantile(hist[vi], mins[vi], maxs[vi], 0.75)
		out[vi] = row
	}
	return out, nil
}

// histQuantile interpolates the q-quantile from equal-width bin counts.
func histQuantile(counts []float64, lo, hi, q float64) float64 {
	var total float64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return math.NaN()
	}
	if hi <= lo {
		return lo
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

// datasetFilter builds the SQL predicate scoping a step to given datasets
// on top of the request filter.
func datasetFilter(datasets []string, extra string) string {
	var parts []string
	if len(datasets) > 0 {
		in := ""
		for i, d := range datasets {
			if i > 0 {
				in += ", "
			}
			in += "'" + d + "'"
		}
		parts = append(parts, "dataset IN ("+in+")")
	}
	if extra != "" {
		parts = append(parts, "("+extra+")")
	}
	switch len(parts) {
	case 0:
		return ""
	case 1:
		return parts[0]
	}
	return parts[0] + " AND " + parts[1]
}
