package algorithms

import (
	"encoding/json"
	"fmt"
	"math"

	"mip/internal/engine"
	"mip/internal/federation"
	"mip/internal/smpc"
)

// Descriptive statistics: the dashboard table of Figure 3 — per dataset
// and per variable: Datapoints, NA, SE, mean, std, min, Q1, Q2, Q3, max.
//
// Flow (per dataset group): one summary round whose moments are summed and
// whose minima and maxima are folded by min and max, then a histogram round
// whose bin counts (summed) yield the quartiles by interpolation: two rounds
// per group. The groups are each dataset and "all" of them; with one
// dataset the two are the same group, computed once. Every transfer is a
// fixed-shape numeric vector tagged with its op, so the whole algorithm runs
// unchanged over SMPC.

// histBins is the quantile histogram resolution: quartiles are exact to
// (max−min)/histBins.
const histBins = 256

func init() {
	federation.RegisterLocal("desc_summary", descSummaryLocal)
	federation.RegisterLocal("desc_hist", descHistLocal)
	Register(&Descriptive{})
}

// descSummaryLocal returns, per requested variable, the additive moments
// [n, na, sum, sum2] as one flat vector (variables × 4) to sum, and the
// minima and maxima to take the min and max of. A worker with no values for
// a variable reports ±extremeSentinel, which the folds ignore.
func descSummaryLocal(wctx *federation.WorkerCtx, data *engine.Table, kwargs federation.Kwargs) (federation.Transfer, error) {
	a, err := decodeVars(kwargs)
	if err != nil {
		return nil, err
	}
	moments := make([]float64, 0, len(a.Vars)*4)
	mins := make([]float64, len(a.Vars))
	maxs := make([]float64, len(a.Vars))
	for vi, name := range a.Vars {
		v := data.ColByName(name)
		if v == nil {
			return nil, fmt.Errorf("algorithms: no variable %q", name)
		}
		f := v.CastFloat64()
		var n, na, s, s2 float64
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := 0; i < f.Len(); i++ {
			if f.IsNull(i) {
				na++
				continue
			}
			x := f.Float64s()[i]
			n++
			s += x
			s2 += x * x
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		if math.IsInf(lo, 0) {
			lo = extremeSentinel
		}
		if math.IsInf(hi, 0) {
			hi = -extremeSentinel
		}
		moments = append(moments, n, na, s, s2)
		mins[vi], maxs[vi] = lo, hi
	}
	return federation.Transfer{
		"moments": federation.Vector(moments),
		"mins":    federation.Vector(mins).WithOp(smpc.OpMin),
		"maxs":    federation.Vector(maxs).WithOp(smpc.OpMax),
	}, nil
}

// extremeSentinel bounds keep empty workers neutral in min/max folds while
// staying inside the SMPC fixed-point range.
const extremeSentinel = 1e12

// descHistLocal bins each variable into histBins equal-width bins over the
// global [min, max] passed down by the master.
func descHistLocal(wctx *federation.WorkerCtx, data *engine.Table, kwargs federation.Kwargs) (federation.Transfer, error) {
	a, err := decodeVars(kwargs)
	if err != nil {
		return nil, err
	}
	vars, mins, maxs := a.Vars, a.Mins, a.Maxs
	if len(mins) != len(vars) || len(maxs) != len(vars) {
		return nil, fmt.Errorf("algorithms: desc_hist needs mins and maxs kwargs per variable")
	}
	counts := make([]float64, len(vars)*histBins) // variables × bins
	for vi, name := range vars {
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
			counts[vi*histBins+b]++
		}
	}
	return federation.Transfer{"hist": federation.Matrix(len(vars), histBins, counts)}, nil
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
	// One dataset's group already is "all": the same rows, the same query.
	if len(req.Datasets) != 1 {
		groups = append(groups, req.Datasets)
		names = append(names, "all")
	}

	for gi, ds := range groups {
		rows, err := describeOnce(sess, req, ds)
		if err != nil {
			return nil, err
		}
		perDataset[names[gi]] = rows
	}
	if len(req.Datasets) == 1 {
		perDataset["all"] = perDataset[req.Datasets[0]]
	}
	return Result{"datasets": perDataset, "variables": req.Y}, nil
}

func describeOnce(sess *federation.Session, req Request, datasets []string) ([]VariableSummary, error) {
	filter := datasetFilter(datasets, req.Filter)
	spec := federation.LocalRunSpec{
		Func:   "desc_summary",
		Vars:   req.Y,
		Filter: filter,
		KeepNA: true, // NA counting needs the incomplete rows
		Kwargs: varsArgs{Vars: req.Y},
	}
	summary, err := sess.Aggregate(spec)
	if err != nil {
		return nil, err
	}
	m, err := summary.Floats("moments")
	if err != nil {
		return nil, err
	}
	mins, _ := summary.Floats("mins")
	maxs, _ := summary.Floats("maxs")

	spec.Func = "desc_hist"
	spec.Kwargs = varsArgs{Vars: req.Y, Mins: mins, Maxs: maxs}
	histT, err := sess.Aggregate(spec)
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
