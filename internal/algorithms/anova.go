package algorithms

import (
	"encoding/json"
	"fmt"
	"math"

	"mip/internal/engine"
	"mip/internal/federation"
	"mip/internal/stats"
)

// ANOVA. One-way aggregates per-level moments directly. Two-way uses the
// regression formulation: one local round returns the full-model
// (A + B + A:B) normal-equation blocks, and every nested model's residual
// sum of squares is computed on the master from sub-blocks of the same
// aggregates — so the Type-II tests need a single federated round.

func init() {
	federation.RegisterLocal("anova1_local", anova1Local)
	federation.RegisterLocal("anova2_local", anova2Local)
	Register(&ANOVAOneWay{})
	Register(&ANOVATwoWay{})
}

func anova1Local(wctx *federation.WorkerCtx, data *engine.Table, kwargs federation.Kwargs) (federation.Transfer, error) {
	yvar, _ := kwargs["y"].(string)
	xvar, _ := kwargs["x"].(string)
	levels, err := kwVarsKey(kwargs, "levels")
	if err != nil {
		return nil, err
	}
	ys, err := floatCol(data, yvar)
	if err != nil {
		return nil, err
	}
	gs, err := stringCol(data, xvar)
	if err != nil {
		return nil, err
	}
	idx := map[string]int{}
	for i, l := range levels {
		idx[l] = i
	}
	out := make([][]float64, len(levels)) // per level: n, sum, sum2
	for i := range out {
		out[i] = make([]float64, 3)
	}
	for i, y := range ys {
		li, ok := idx[gs[i]]
		if !ok {
			continue
		}
		out[li][0]++
		out[li][1] += y
		out[li][2] += y * y
	}
	return federation.Transfer{"groups": out}, nil
}

// ANOVATable is one effect row. F and PValue are NaN where undefined (the
// Residuals row tests nothing).
type ANOVATable struct {
	Effect string  `json:"effect"`
	DF     float64 `json:"df"`
	SumSq  float64 `json:"sum_sq"`
	MeanSq float64 `json:"mean_sq"`
	F      float64 `json:"f"`
	PValue float64 `json:"p_value"`
}

// MarshalJSON renders undefined F / p-value cells as JSON null.
func (r ANOVATable) MarshalJSON() ([]byte, error) {
	type row ANOVATable // the fields without this method
	return json.Marshal(struct {
		row
		F      *float64 `json:"f"`
		PValue *float64 `json:"p_value"`
	}{row(r), finiteOrNull(r.F), finiteOrNull(r.PValue)})
}

// ANOVAOneWay implements one-way analysis of variance.
type ANOVAOneWay struct{}

// Spec implements Algorithm.
func (*ANOVAOneWay) Spec() Spec {
	return Spec{
		Name:  "anova_oneway",
		Label: "ANOVA One-way",
		Desc:  "One-way analysis of variance of Y across the levels of X, from federated per-level moments.",
		Y:     VarSpec{Min: 1, Max: 1, Types: []string{"real", "integer"}},
		X:     VarSpec{Min: 1, Max: 1, Types: []string{"nominal"}},
		Parameters: []ParamSpec{
			{Name: "levels", Label: "Levels of X", Type: "string"},
		},
	}
}

// Run implements Algorithm.
func (a *ANOVAOneWay) Run(sess *federation.Session, req Request) (Result, error) {
	if err := requireVars(a.Spec(), req); err != nil {
		return nil, err
	}
	levels := req.ParamStrings("levels")
	if len(levels) < 2 {
		return nil, fmt.Errorf("algorithms: anova_oneway needs parameter levels with >= 2 values")
	}
	agg, err := sess.Sum(federation.LocalRunSpec{
		Func:   "anova1_local",
		Vars:   []string{req.Y[0], req.X[0]},
		Filter: req.Filter,
		Kwargs: federation.Kwargs{"y": req.Y[0], "x": req.X[0], "levels": levels},
	}, "groups")
	if err != nil {
		return nil, err
	}
	groups, err := agg.Matrix("groups")
	if err != nil {
		return nil, err
	}
	var n, s, ss, ssb float64
	usable := 0
	for _, g := range groups {
		if g[0] == 0 {
			continue
		}
		usable++
		n += g[0]
		s += g[1]
		ss += g[2]
	}
	if usable < 2 || n <= float64(usable) {
		return nil, fmt.Errorf("algorithms: not enough groups/observations for ANOVA")
	}
	grand := s / n
	for _, g := range groups {
		if g[0] == 0 {
			continue
		}
		gm := g[1] / g[0]
		ssb += g[0] * (gm - grand) * (gm - grand)
	}
	sst := ss - n*grand*grand
	ssw := sst - ssb
	dfb := float64(usable - 1)
	dfw := n - float64(usable)
	f := (ssb / dfb) / (ssw / dfw)
	table := []ANOVATable{
		{Effect: req.X[0], DF: dfb, SumSq: ssb, MeanSq: ssb / dfb, F: f, PValue: 1 - stats.FCDF(f, dfb, dfw)},
		{Effect: "Residuals", DF: dfw, SumSq: ssw, MeanSq: ssw / dfw, F: math.NaN(), PValue: math.NaN()},
	}
	means := map[string]any{}
	for i, l := range levels {
		if groups[i][0] > 0 {
			means[l] = groups[i][1] / groups[i][0]
		}
	}
	return Result{
		"table":  table,
		"eta_sq": ssb / sst,
		"means":  means,
		"n":      n,
	}, nil
}

// anova2Local builds the full two-way design (intercept, A dummies, B
// dummies, interaction dummies) and returns its normal-equation blocks.
func anova2Local(wctx *federation.WorkerCtx, data *engine.Table, kwargs federation.Kwargs) (federation.Transfer, error) {
	yvar, _ := kwargs["y"].(string)
	avar, _ := kwargs["a"].(string)
	bvar, _ := kwargs["b"].(string)
	la, err := kwVarsKey(kwargs, "levels_a")
	if err != nil {
		return nil, err
	}
	lb, err := kwVarsKey(kwargs, "levels_b")
	if err != nil {
		return nil, err
	}
	ys, err := floatCol(data, yvar)
	if err != nil {
		return nil, err
	}
	as, err := stringCol(data, avar)
	if err != nil {
		return nil, err
	}
	bs, err := stringCol(data, bvar)
	if err != nil {
		return nil, err
	}
	ia := map[string]int{}
	for i, l := range la {
		ia[l] = i
	}
	ib := map[string]int{}
	for i, l := range lb {
		ib[l] = i
	}
	pa, pb := len(la)-1, len(lb)-1
	p := 1 + pa + pb + pa*pb
	var rows [][]float64
	var yKeep []float64
	for i := range ys {
		aIdx, okA := ia[as[i]]
		bIdx, okB := ib[bs[i]]
		if !okA || !okB {
			continue
		}
		row := make([]float64, p)
		row[0] = 1
		if aIdx > 0 {
			row[aIdx] = 1
		}
		if bIdx > 0 {
			row[pa+bIdx] = 1
		}
		if aIdx > 0 && bIdx > 0 {
			row[1+pa+pb+(aIdx-1)*pb+(bIdx-1)] = 1
		}
		rows = append(rows, row)
		yKeep = append(yKeep, ys[i])
	}
	x := stats.NewDense(len(rows), p)
	for i, r := range rows {
		copy(x.Row(i), r)
	}
	return federation.Transfer{
		"n":   float64(len(yKeep)),
		"xtx": denseToRows(stats.XtX(x)),
		"xty": stats.XtY(x, yKeep),
		"yty": sqSum(yKeep),
		"sy":  sum(yKeep),
	}, nil
}

// ANOVATwoWay implements two-way ANOVA with interaction (Type II sums of
// squares via nested-model comparisons on the aggregated normal equations).
type ANOVATwoWay struct{}

// Spec implements Algorithm.
func (*ANOVATwoWay) Spec() Spec {
	return Spec{
		Name:  "anova_twoway",
		Label: "Two-way ANOVA",
		Desc:  "Two-way analysis of variance of Y across factors A and B with interaction, Type II tests from one federated round.",
		Y:     VarSpec{Min: 1, Max: 1, Types: []string{"real", "integer"}},
		X:     VarSpec{Min: 2, Max: 2, Types: []string{"nominal"}},
		Parameters: []ParamSpec{
			{Name: "levels", Label: "Levels of both factors", Type: "string"},
		},
	}
}

// Run implements Algorithm.
func (a *ANOVATwoWay) Run(sess *federation.Session, req Request) (Result, error) {
	if err := requireVars(a.Spec(), req); err != nil {
		return nil, err
	}
	levels := levelsParam(req)
	la, lb := levels[req.X[0]], levels[req.X[1]]
	if len(la) < 2 || len(lb) < 2 {
		return nil, fmt.Errorf("algorithms: anova_twoway needs levels for both factors")
	}
	agg, err := sess.Sum(federation.LocalRunSpec{
		Func:   "anova2_local",
		Vars:   []string{req.Y[0], req.X[0], req.X[1]},
		Filter: req.Filter,
		Kwargs: federation.Kwargs{
			"y": req.Y[0], "a": req.X[0], "b": req.X[1],
			"levels_a": la, "levels_b": lb,
		},
	}, "n", "xtx", "xty", "yty", "sy")
	if err != nil {
		return nil, err
	}
	xtxRows, err := agg.Matrix("xtx")
	if err != nil {
		return nil, err
	}
	xty, _ := agg.Floats("xty")
	n, _ := agg.Float("n")
	yty, _ := agg.Float("yty")

	xtx := rowsToDense(xtxRows)
	pa, pb := len(la)-1, len(lb)-1
	p := 1 + pa + pb + pa*pb
	if n <= float64(p) {
		return nil, fmt.Errorf("algorithms: %v observations cannot fit the two-way model (%d columns)", n, p)
	}

	// Column index sets for the nested models.
	colsA := seq(1, 1+pa)
	colsB := seq(1+pa, 1+pa+pb)
	colsAB := seq(1+pa+pb, p)
	model := func(sets ...[]int) []int {
		out := []int{0}
		for _, s := range sets {
			out = append(out, s...)
		}
		return out
	}
	sse := func(cols []int) (float64, error) { return sseSub(xtx, xty, yty, cols) }

	sseFull, err := sse(model(colsA, colsB, colsAB))
	if err != nil {
		return nil, err
	}
	sseAB, err := sse(model(colsA, colsB)) // A + B (no interaction)
	if err != nil {
		return nil, err
	}
	sseA, err := sse(model(colsA))
	if err != nil {
		return nil, err
	}
	sseB, err := sse(model(colsB))
	if err != nil {
		return nil, err
	}

	dfA, dfB, dfAB := float64(pa), float64(pb), float64(pa*pb)
	dfRes := n - float64(p)
	msRes := sseFull / dfRes

	row := func(effect string, ssq, df float64) ANOVATable {
		f := (ssq / df) / msRes
		return ANOVATable{Effect: effect, DF: df, SumSq: ssq, MeanSq: ssq / df,
			F: f, PValue: 1 - stats.FCDF(f, df, dfRes)}
	}
	table := []ANOVATable{
		row(req.X[0], sseB-sseAB, dfA), // SS(A | B)
		row(req.X[1], sseA-sseAB, dfB), // SS(B | A)
		row(req.X[0]+":"+req.X[1], sseAB-sseFull, dfAB),
		{Effect: "Residuals", DF: dfRes, SumSq: sseFull, MeanSq: msRes, F: math.NaN(), PValue: math.NaN()},
	}
	return Result{"table": table, "n": n}, nil
}

func seq(from, to int) []int {
	out := make([]int, 0, to-from)
	for i := from; i < to; i++ {
		out = append(out, i)
	}
	return out
}

// sseSub computes the residual sum of squares of the submodel using the
// given design columns, from the full model's aggregates.
func sseSub(xtx *stats.Dense, xty []float64, yty float64, cols []int) (float64, error) {
	k := len(cols)
	sub := stats.NewDense(k, k)
	sv := make([]float64, k)
	for i, ci := range cols {
		sv[i] = xty[ci]
		for j, cj := range cols {
			sub.Set(i, j, xtx.At(ci, cj))
		}
	}
	beta, err := stats.SolveSPD(sub, sv)
	if err != nil {
		beta, err = stats.SolveRidge(sub, sv, 1e-8)
		if err != nil {
			return 0, err
		}
	}
	var bXty float64
	for i := range beta {
		bXty += beta[i] * sv[i]
	}
	sse := yty - bXty
	if sse < 0 {
		sse = 0
	}
	return sse, nil
}
