package algorithms

import (
	"encoding/json"
	"math"

	"mip/internal/engine"
	"mip/internal/federation"
	"mip/internal/stats"
)

// Pearson correlation: for every (Y, X) pair, aggregate the co-moments
// [n, Σx, Σy, Σx², Σy², Σxy] and derive r, the t statistic, the p-value and
// a Fisher-z confidence interval.

func init() {
	federation.RegisterLocal("pearson_local", pearsonLocal)
	Register(&PearsonCorrelation{})
}

func pearsonLocal(wctx *federation.WorkerCtx, data *engine.Table, kwargs federation.Kwargs) (federation.Transfer, error) {
	ys, err := kwVarsKey(kwargs, "y")
	if err != nil {
		return nil, err
	}
	xs, err := kwVarsKey(kwargs, "x")
	if err != nil {
		return nil, err
	}
	cols := map[string][]float64{}
	for _, v := range append(append([]string{}, ys...), xs...) {
		if _, ok := cols[v]; ok {
			continue
		}
		c, err := floatCol(data, v)
		if err != nil {
			return nil, err
		}
		cols[v] = c
	}
	out := make([][]float64, 0, len(ys)*len(xs))
	for _, yv := range ys {
		for _, xv := range xs {
			a, b := cols[xv], cols[yv]
			var n, sx, sy, sxx, syy, sxy float64
			for i := range a {
				n++
				sx += a[i]
				sy += b[i]
				sxx += a[i] * a[i]
				syy += b[i] * b[i]
				sxy += a[i] * b[i]
			}
			out = append(out, []float64{n, sx, sy, sxx, syy, sxy})
		}
	}
	return federation.Transfer{"pairs": out}, nil
}

// Correlation is one (y, x) pair's result.
type Correlation struct {
	Y      string  `json:"y"`
	X      string  `json:"x"`
	R      float64 `json:"r"`
	N      float64 `json:"n"`
	T      float64 `json:"t"`
	PValue float64 `json:"p_value"`
	CILow  float64 `json:"ci_low"`
	CIHigh float64 `json:"ci_high"`
}

// MarshalJSON renders the statistics of a degenerate pair (too few rows, a
// constant column, |r| = 1) as JSON null where they are undefined.
func (c Correlation) MarshalJSON() ([]byte, error) {
	type pair Correlation // the fields without this method
	return json.Marshal(struct {
		pair
		R      *float64 `json:"r"`
		T      *float64 `json:"t"`
		PValue *float64 `json:"p_value"`
	}{pair(c), finiteOrNull(c.R), finiteOrNull(c.T), finiteOrNull(c.PValue)})
}

// PearsonCorrelation implements the Pearson correlation algorithm.
type PearsonCorrelation struct{}

// Spec implements Algorithm.
func (*PearsonCorrelation) Spec() Spec {
	return Spec{
		Name:  "pearson_correlation",
		Label: "Pearson Correlation",
		Desc:  "Pairwise Pearson correlation of Y against X variables, with t test and Fisher-z confidence intervals.",
		Y:     VarSpec{Min: 1, Types: []string{"real", "integer"}},
		X:     VarSpec{Min: 1, Types: []string{"real", "integer"}},
		Parameters: []ParamSpec{
			{Name: "alpha", Label: "CI significance", Type: "real", Default: 0.05},
		},
	}
}

// Run implements Algorithm.
func (a *PearsonCorrelation) Run(sess *federation.Session, req Request) (Result, error) {
	if err := requireVars(a.Spec(), req); err != nil {
		return nil, err
	}
	vars := append(append([]string{}, req.Y...), req.X...)
	agg, err := sess.Sum(federation.LocalRunSpec{
		Func:   "pearson_local",
		Vars:   dedupe(vars),
		Filter: req.Filter,
		Kwargs: federation.Kwargs{"y": req.Y, "x": req.X},
	}, "pairs")
	if err != nil {
		return nil, err
	}
	pairs, err := agg.Matrix("pairs")
	if err != nil {
		return nil, err
	}
	alpha := req.ParamFloat("alpha", 0.05)
	zcrit := stats.NormalQuantile(1 - alpha/2)
	var out []Correlation
	idx := 0
	for _, yv := range req.Y {
		for _, xv := range req.X {
			m := pairs[idx]
			idx++
			n, sx, sy, sxx, syy, sxy := m[0], m[1], m[2], m[3], m[4], m[5]
			c := Correlation{Y: yv, X: xv, N: n}
			if n < 3 {
				c.R, c.T, c.PValue = math.NaN(), math.NaN(), math.NaN()
				out = append(out, c)
				continue
			}
			cov := sxy - sx*sy/n
			vx := sxx - sx*sx/n
			vy := syy - sy*sy/n
			if vx <= 0 || vy <= 0 {
				c.R = math.NaN()
				out = append(out, c)
				continue
			}
			c.R = cov / math.Sqrt(vx*vy)
			df := n - 2
			if c.R*c.R < 1 {
				c.T = c.R * math.Sqrt(df/(1-c.R*c.R))
				c.PValue = 2 * (1 - stats.StudentTCDF(math.Abs(c.T), df))
			} else {
				c.T = math.Inf(int(math.Copysign(1, c.R)))
				c.PValue = 0
			}
			// Fisher z interval.
			z := 0.5 * math.Log((1+c.R)/(1-c.R))
			se := 1 / math.Sqrt(n-3)
			lo, hi := z-zcrit*se, z+zcrit*se
			c.CILow = math.Tanh(lo)
			c.CIHigh = math.Tanh(hi)
			out = append(out, c)
		}
	}
	return Result{"correlations": out}, nil
}

func dedupe(ss []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range ss {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}
