package algorithms

import (
	"fmt"
	"math"

	"mip/internal/engine"
	"mip/internal/federation"
	"mip/internal/stats"
)

// The three t-tests the paper lists (independent, one-sample, paired), all
// driven by a single grouped-moments local step: every statistic derives
// from per-group n, Σx, Σx² (plus Σd, Σd² of pairwise differences for the
// paired test), which aggregate additively and therefore exactly.

func init() {
	federation.RegisterLocal("ttest_moments", ttestMomentsLocal)
	federation.RegisterLocal("ttest_paired_moments", ttestPairedLocal)
	Register(&TTestOneSample{})
	Register(&TTestIndependent{})
	Register(&TTestPaired{})
}

// ttestArgs are the kwargs of the moments step: the variable, optionally
// split by the binary GroupVar into Groups = [g1, g2].
type ttestArgs struct {
	Var      string   `json:"var"`
	GroupVar string   `json:"group_var,omitempty"`
	Groups   []string `json:"groups,omitempty"`
}

// ttestMomentsLocal computes the moments of the variable, per group when
// the kwargs name a group variable.
func ttestMomentsLocal(wctx *federation.WorkerCtx, data *engine.Table, kwargs federation.Kwargs) (federation.Transfer, error) {
	var a ttestArgs
	if err := kwargs.Decode(&a); err != nil {
		return nil, err
	}
	if a.Var == "" {
		return nil, fmt.Errorf("algorithms: missing var kwarg")
	}
	xs, err := floatCol(data, a.Var)
	if err != nil {
		return nil, err
	}
	if a.GroupVar == "" {
		return federation.Transfer{
			"m": federation.Vector([]float64{float64(len(xs)), sum(xs), sqSum(xs)}),
		}, nil
	}
	groups := a.Groups
	if groups == nil {
		return nil, fmt.Errorf("algorithms: missing groups kwarg")
	}
	if len(groups) != 2 {
		return nil, fmt.Errorf("algorithms: independent t-test needs exactly 2 groups, got %v", groups)
	}
	gs, err := stringCol(data, a.GroupVar)
	if err != nil {
		return nil, err
	}
	out := make([]float64, 6) // n1 s1 ss1 n2 s2 ss2
	for i, x := range xs {
		switch gs[i] {
		case groups[0]:
			out[0]++
			out[1] += x
			out[2] += x * x
		case groups[1]:
			out[3]++
			out[4] += x
			out[5] += x * x
		}
	}
	return federation.Transfer{"m": federation.Vector(out)}, nil
}

// ttestPairedLocal computes moments of the pairwise difference of two
// variables.
func ttestPairedLocal(wctx *federation.WorkerCtx, data *engine.Table, kwargs federation.Kwargs) (federation.Transfer, error) {
	args, err := decodeVars(kwargs)
	if err != nil {
		return nil, err
	}
	vars := args.Vars
	if len(vars) != 2 {
		return nil, fmt.Errorf("algorithms: paired t-test needs 2 variables")
	}
	a, err := floatCol(data, vars[0])
	if err != nil {
		return nil, err
	}
	b, err := floatCol(data, vars[1])
	if err != nil {
		return nil, err
	}
	var n, s, ss float64
	for i := range a {
		d := a[i] - b[i]
		n++
		s += d
		ss += d * d
	}
	return federation.Transfer{"m": federation.Vector([]float64{n, s, ss})}, nil
}

// TTestResult is the common output of the three tests.
type TTestResult struct {
	T        float64 `json:"t"`
	DF       float64 `json:"df"`
	PValue   float64 `json:"p_value"`
	MeanDiff float64 `json:"mean_diff"`
	CILow    float64 `json:"ci_low"`
	CIHigh   float64 `json:"ci_high"`
	N        float64 `json:"n"`
	N2       float64 `json:"n2,omitempty"`
}

func tSummary(meanDiff, se, df, alpha float64) TTestResult {
	tv := meanDiff / se
	crit := stats.StudentTQuantile(1-alpha/2, df)
	return TTestResult{
		T: tv, DF: df,
		PValue:   2 * (1 - stats.StudentTCDF(math.Abs(tv), df)),
		MeanDiff: meanDiff,
		CILow:    meanDiff - crit*se,
		CIHigh:   meanDiff + crit*se,
	}
}

// TTestOneSample tests H0: mean(y) = mu0.
type TTestOneSample struct{}

// Spec implements Algorithm.
func (*TTestOneSample) Spec() Spec {
	return Spec{
		Name:  "ttest_onesample",
		Label: "T-Test One-Sample",
		Desc:  "One-sample t-test of the mean of Y against mu0.",
		Y:     VarSpec{Min: 1, Max: 1, Types: []string{"real", "integer"}},
		Parameters: []ParamSpec{
			{Name: "mu0", Label: "Hypothesized mean", Type: "real", Default: 0.0},
			{Name: "alpha", Label: "CI significance", Type: "real", Default: 0.05},
		},
	}
}

// Run implements Algorithm.
func (a *TTestOneSample) Run(sess *federation.Session, req Request) (Result, error) {
	if err := requireVars(a.Spec(), req); err != nil {
		return nil, err
	}
	agg, err := sess.Aggregate(federation.LocalRunSpec{
		Func:   "ttest_moments",
		Vars:   req.Y,
		Filter: req.Filter,
		Kwargs: ttestArgs{Var: req.Y[0]},
	})
	if err != nil {
		return nil, err
	}
	m, _ := agg.Floats("m")
	n, s, ss := m[0], m[1], m[2]
	if n < 2 {
		return nil, fmt.Errorf("algorithms: need at least 2 observations, have %v", n)
	}
	mu0 := req.ParamFloat("mu0", 0)
	mean := s / n
	sd := math.Sqrt((ss - s*s/n) / (n - 1))
	res := tSummary(mean-mu0, sd/math.Sqrt(n), n-1, req.ParamFloat("alpha", 0.05))
	res.N = n
	return Result{"ttest": res, "mean": mean, "std": sd}, nil
}

// TTestIndependent compares the means of Y between two groups of X
// (Welch's test by default, Student's pooled test optionally).
type TTestIndependent struct{}

// Spec implements Algorithm.
func (*TTestIndependent) Spec() Spec {
	return Spec{
		Name:  "ttest_independent",
		Label: "T-Test Independent",
		Desc:  "Two-sample t-test of Y between the two groups of X (Welch or pooled).",
		Y:     VarSpec{Min: 1, Max: 1, Types: []string{"real", "integer"}},
		X:     VarSpec{Min: 1, Max: 1, Types: []string{"nominal"}},
		Parameters: []ParamSpec{
			{Name: "groups", Label: "The two group values", Type: "string"},
			{Name: "welch", Label: "Welch correction", Type: "enum", Enum: []string{"true", "false"}, Default: "true"},
			{Name: "alpha", Label: "CI significance", Type: "real", Default: 0.05},
		},
	}
}

// Run implements Algorithm.
func (a *TTestIndependent) Run(sess *federation.Session, req Request) (Result, error) {
	if err := requireVars(a.Spec(), req); err != nil {
		return nil, err
	}
	groups := req.ParamStrings("groups")
	if len(groups) != 2 {
		return nil, fmt.Errorf("algorithms: ttest_independent needs parameter groups = [g1, g2]")
	}
	agg, err := sess.Aggregate(federation.LocalRunSpec{
		Func:   "ttest_moments",
		Vars:   append([]string{req.Y[0]}, req.X[0]),
		Filter: req.Filter,
		Kwargs: ttestArgs{Var: req.Y[0], GroupVar: req.X[0], Groups: groups},
	})
	if err != nil {
		return nil, err
	}
	m, _ := agg.Floats("m")
	n1, s1, ss1, n2, s2, ss2 := m[0], m[1], m[2], m[3], m[4], m[5]
	if n1 < 2 || n2 < 2 {
		return nil, fmt.Errorf("algorithms: both groups need >= 2 observations (%v, %v)", n1, n2)
	}
	mean1, mean2 := s1/n1, s2/n2
	v1 := (ss1 - s1*s1/n1) / (n1 - 1)
	v2 := (ss2 - s2*s2/n2) / (n2 - 1)
	alpha := req.ParamFloat("alpha", 0.05)

	var res TTestResult
	if req.ParamString("welch", "true") == "true" {
		se := math.Sqrt(v1/n1 + v2/n2)
		df := (v1/n1 + v2/n2) * (v1/n1 + v2/n2) /
			((v1/n1)*(v1/n1)/(n1-1) + (v2/n2)*(v2/n2)/(n2-1))
		res = tSummary(mean1-mean2, se, df, alpha)
	} else {
		sp2 := ((n1-1)*v1 + (n2-1)*v2) / (n1 + n2 - 2)
		se := math.Sqrt(sp2 * (1/n1 + 1/n2))
		res = tSummary(mean1-mean2, se, n1+n2-2, alpha)
	}
	res.N, res.N2 = n1, n2
	return Result{
		"ttest": res,
		"means": map[string]float64{groups[0]: mean1, groups[1]: mean2},
		"vars":  map[string]float64{groups[0]: v1, groups[1]: v2},
	}, nil
}

// TTestPaired tests the mean of the pairwise difference of two variables.
type TTestPaired struct{}

// Spec implements Algorithm.
func (*TTestPaired) Spec() Spec {
	return Spec{
		Name:  "ttest_paired",
		Label: "T-Test Paired",
		Desc:  "Paired t-test of Y1 − Y2 over complete pairs.",
		Y:     VarSpec{Min: 2, Max: 2, Types: []string{"real", "integer"}},
		Parameters: []ParamSpec{
			{Name: "alpha", Label: "CI significance", Type: "real", Default: 0.05},
		},
	}
}

// Run implements Algorithm.
func (a *TTestPaired) Run(sess *federation.Session, req Request) (Result, error) {
	if err := requireVars(a.Spec(), req); err != nil {
		return nil, err
	}
	agg, err := sess.Aggregate(federation.LocalRunSpec{
		Func:   "ttest_paired_moments",
		Vars:   req.Y,
		Filter: req.Filter,
		Kwargs: varsArgs{Vars: req.Y},
	})
	if err != nil {
		return nil, err
	}
	m, _ := agg.Floats("m")
	n, s, ss := m[0], m[1], m[2]
	if n < 2 {
		return nil, fmt.Errorf("algorithms: need at least 2 pairs, have %v", n)
	}
	mean := s / n
	sd := math.Sqrt((ss - s*s/n) / (n - 1))
	res := tSummary(mean, sd/math.Sqrt(n), n-1, req.ParamFloat("alpha", 0.05))
	res.N = n
	return Result{"ttest": res}, nil
}
