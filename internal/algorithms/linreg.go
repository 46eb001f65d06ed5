package algorithms

import (
	"encoding/json"
	"fmt"
	"math"

	"mip/internal/engine"
	"mip/internal/federation"
	"mip/internal/stats"
)

// Federated linear regression (the paper's Figure 2 example): local steps
// compute the normal-equation blocks XᵀX, Xᵀy, yᵀy and n over each
// worker's slice; the master sums them (plain or SMPC), solves, and then
// derives the full inferential summary (coefficient SEs, t statistics,
// p-values, confidence intervals, R², F test) from the same aggregates.

func init() {
	federation.RegisterLocal("linreg_fit_local", linregFitLocal)
	federation.RegisterLocal("linreg_score_local", linregScoreLocal)
	Register(&LinearRegression{})
	Register(&LinearRegressionCV{})
}

// linregData decodes the regression kwargs and returns the step's design
// matrix and numeric outcome.
func linregData(data *engine.Table, kwargs federation.Kwargs) (modelArgs, *stats.Dense, []float64, error) {
	a, err := decodeModel(kwargs)
	if err != nil {
		return a, nil, nil, err
	}
	yAll, err := floatCol(data, a.Y)
	if err != nil {
		return a, nil, nil, err
	}
	x, y, err := a.rows(data, func(r int) float64 { return yAll[r] })
	return a, x, y, err
}

// linregFitLocal computes the local normal-equation blocks.
func linregFitLocal(wctx *federation.WorkerCtx, data *engine.Table, kwargs federation.Kwargs) (federation.Transfer, error) {
	_, x, y, err := linregData(data, kwargs)
	if err != nil {
		return nil, err
	}
	return federation.Transfer{
		"n":   federation.Scalar(float64(len(y))),
		"xtx": denseTensor(stats.XtX(x)),
		"xty": federation.Vector(stats.XtY(x, y)),
		"yty": federation.Scalar(sqSum(y)),
		"sy":  federation.Scalar(sum(y)),
	}, nil
}

// linregScoreLocal evaluates SSE/SAE of a given coefficient vector on the
// local slice (used by the CV flow on held-out folds).
func linregScoreLocal(wctx *federation.WorkerCtx, data *engine.Table, kwargs federation.Kwargs) (federation.Transfer, error) {
	a, x, y, err := linregData(data, kwargs)
	if err != nil {
		return nil, err
	}
	if len(a.Beta) != x.Cols() {
		return nil, fmt.Errorf("algorithms: beta kwarg has %d coefficients, design has %d", len(a.Beta), x.Cols())
	}
	var sse, sae, sy, sy2 float64
	for i := 0; i < x.Rows(); i++ {
		var pred float64
		for j, b := range a.Beta {
			pred += x.At(i, j) * b
		}
		r := y[i] - pred
		sse += r * r
		sae += math.Abs(r)
		sy += y[i]
		sy2 += y[i] * y[i]
	}
	return federation.Transfer{
		"n": federation.Scalar(float64(x.Rows())), "sse": federation.Scalar(sse), "sae": federation.Scalar(sae),
		"sy": federation.Scalar(sy), "sy2": federation.Scalar(sy2),
	}, nil
}

// Coefficient is one row of the regression summary table.
type Coefficient struct {
	Name     string  `json:"name"`
	Estimate float64 `json:"estimate"`
	StdErr   float64 `json:"std_err"`
	TValue   float64 `json:"t_value"`
	PValue   float64 `json:"p_value"`
	CILow    float64 `json:"ci_low"`
	CIHigh   float64 `json:"ci_high"`
}

// LinRegModel is the fitted-model summary.
type LinRegModel struct {
	Coefficients []Coefficient `json:"coefficients"`
	N            int           `json:"n"`
	DFResidual   float64       `json:"df_residual"`
	RSquared     float64       `json:"r_squared"`
	AdjRSquared  float64       `json:"adj_r_squared"`
	FStat        float64       `json:"f_stat"`
	FPValue      float64       `json:"f_p_value"`
	ResidualSE   float64       `json:"residual_se"`
}

// LinearRegression implements the linear-regression algorithm.
type LinearRegression struct{}

// Spec implements Algorithm.
func (*LinearRegression) Spec() Spec {
	return Spec{
		Name:  "linear_regression",
		Label: "Linear Regression",
		Desc:  "Ordinary least squares fitted from federated XᵀX/Xᵀy aggregates, with t tests, confidence intervals, R² and the model F test.",
		Y:     VarSpec{Min: 1, Max: 1, Types: []string{"real", "integer"}},
		X:     VarSpec{Min: 1, Types: []string{"real", "integer", "nominal"}},
		Parameters: []ParamSpec{
			{Name: "levels", Label: "Nominal covariate levels", Type: "string", Doc: "map of nominal covariate to its category levels (reference level first)"},
			{Name: "alpha", Label: "CI significance", Type: "real", Default: 0.05, Min: 0.0001, Max: 0.5},
		},
	}
}

// Run implements Algorithm.
func (a *LinearRegression) Run(sess *federation.Session, req Request) (Result, error) {
	if err := requireVars(a.Spec(), req); err != nil {
		return nil, err
	}
	model, err := fitLinReg(sess, req, -1, 0)
	if err != nil {
		return nil, err
	}
	return Result{"model": model}, nil
}

// fitLinReg runs the aggregate round and solves the normal equations.
// fold >= 0 excludes that fold (CV training); numFolds carries k.
func fitLinReg(sess *federation.Session, req Request, fold, numFolds int) (*LinRegModel, error) {
	levels := levelsParam(req)
	args := modelArgs{Y: req.Y[0], X: req.X, Levels: levels}
	vars := append(append([]string{}, req.Y...), req.X...)
	if fold >= 0 {
		args.foldArgs = foldArgs{Fold: fold, NumFolds: numFolds, FoldMode: "exclude"}
		vars = append(vars, "row_id")
	}
	agg, err := sess.Aggregate(federation.LocalRunSpec{
		Func:   "linreg_fit_local",
		Vars:   vars,
		Filter: req.Filter,
		Kwargs: args,
	})
	if err != nil {
		return nil, err
	}
	return solveLinReg(agg, req, levels)
}

func solveLinReg(agg federation.Transfer, req Request, levels map[string][]string) (*LinRegModel, error) {
	xtx, err := aggDense(agg, "xtx")
	if err != nil {
		return nil, err
	}
	xty, err := agg.Floats("xty")
	if err != nil {
		return nil, err
	}
	n, _ := agg.Float("n")
	yty, _ := agg.Float("yty")
	sy, _ := agg.Float("sy")

	p := xtx.Rows()
	if n <= float64(p) {
		return nil, fmt.Errorf("algorithms: %v observations cannot identify %d coefficients", n, p)
	}
	beta, err := stats.SolveSPD(xtx, xty)
	if err != nil {
		// Regularize mildly on collinearity rather than failing outright.
		beta, err = stats.SolveRidge(xtx, xty, 1e-8)
		if err != nil {
			return nil, fmt.Errorf("algorithms: singular design: %w", err)
		}
	}

	// Residual sum of squares from aggregates:
	// SSE = yᵀy − 2βᵀXᵀy + βᵀXᵀXβ.
	var bXtXb, bXty float64
	xtxb := xtx.MulVec(beta)
	for j := range beta {
		bXtXb += beta[j] * xtxb[j]
		bXty += beta[j] * xty[j]
	}
	sse := yty - 2*bXty + bXtXb
	if sse < 0 {
		sse = 0
	}
	sst := yty - sy*sy/n
	dfRes := n - float64(p)
	sigma2 := sse / dfRes

	inv, err := stats.InvSPD(xtx)
	if err != nil {
		return nil, err
	}
	design := newDesign(req.X, levels)
	alpha := req.ParamFloat("alpha", 0.05)
	tcrit := stats.StudentTQuantile(1-alpha/2, dfRes)

	model := &LinRegModel{
		N:          int(n),
		DFResidual: dfRes,
		ResidualSE: math.Sqrt(sigma2),
	}
	for j, name := range design.Names {
		se := math.Sqrt(sigma2 * inv.At(j, j))
		tv := beta[j] / se
		pv := 2 * (1 - stats.StudentTCDF(math.Abs(tv), dfRes))
		model.Coefficients = append(model.Coefficients, Coefficient{
			Name: name, Estimate: beta[j], StdErr: se, TValue: tv, PValue: pv,
			CILow: beta[j] - tcrit*se, CIHigh: beta[j] + tcrit*se,
		})
	}
	if sst > 0 {
		model.RSquared = 1 - sse/sst
		model.AdjRSquared = 1 - (1-model.RSquared)*(n-1)/dfRes
	}
	if p > 1 && sse > 0 {
		dfModel := float64(p - 1)
		model.FStat = ((sst - sse) / dfModel) / sigma2
		model.FPValue = 1 - stats.FCDF(model.FStat, dfModel, dfRes)
	}
	return model, nil
}

// levelsParam reads the request's nominal-levels parameter: each nominal
// covariate's levels, reference level first. A malformed map reads as none.
func levelsParam(req Request) map[string][]string {
	var out map[string][]string
	b, err := json.Marshal(req.Param("levels", nil))
	if err != nil || json.Unmarshal(b, &out) != nil || out == nil {
		return map[string][]string{}
	}
	return out
}

// LinearRegressionCV is k-fold cross-validated linear regression.
type LinearRegressionCV struct{}

// Spec implements Algorithm.
func (*LinearRegressionCV) Spec() Spec {
	return Spec{
		Name:  "linear_regression_cv",
		Label: "Linear Regression Cross-validation",
		Desc:  "k-fold cross-validation of the federated OLS model; reports per-fold and mean MSE, MAE and R².",
		Y:     VarSpec{Min: 1, Max: 1, Types: []string{"real", "integer"}},
		X:     VarSpec{Min: 1, Types: []string{"real", "integer", "nominal"}},
		Parameters: []ParamSpec{
			{Name: "num_folds", Label: "Folds", Type: "int", Default: 5, Min: 2, Max: 20},
			{Name: "levels", Label: "Nominal covariate levels", Type: "string"},
		},
	}
}

// FoldScore is one fold's held-out metrics.
type FoldScore struct {
	Fold int     `json:"fold"`
	N    int     `json:"n"`
	MSE  float64 `json:"mse"`
	MAE  float64 `json:"mae"`
	R2   float64 `json:"r2"`
}

// Run implements Algorithm.
func (a *LinearRegressionCV) Run(sess *federation.Session, req Request) (Result, error) {
	if err := requireVars(a.Spec(), req); err != nil {
		return nil, err
	}
	k := req.ParamInt("num_folds", 5)
	if k < 2 {
		return nil, fmt.Errorf("algorithms: num_folds must be >= 2")
	}
	levels := levelsParam(req)
	vars := append(append([]string{}, req.Y...), req.X...)
	vars = append(vars, "row_id")

	var folds []FoldScore
	var meanMSE, meanMAE, meanR2 float64
	for f := 0; f < k; f++ {
		model, err := fitLinReg(sess, req, f, k)
		if err != nil {
			return nil, fmt.Errorf("fold %d: %w", f, err)
		}
		beta := make([]float64, len(model.Coefficients))
		for i, c := range model.Coefficients {
			beta[i] = c.Estimate
		}
		scores, err := sess.Aggregate(federation.LocalRunSpec{
			Func:   "linreg_score_local",
			Vars:   vars,
			Filter: req.Filter,
			Kwargs: modelArgs{Y: req.Y[0], X: req.X, Levels: levels, Beta: beta,
				foldArgs: foldArgs{Fold: f, NumFolds: k, FoldMode: "only"}},
		})
		if err != nil {
			return nil, fmt.Errorf("fold %d scoring: %w", f, err)
		}
		n, _ := scores.Float("n")
		sse, _ := scores.Float("sse")
		sae, _ := scores.Float("sae")
		sy, _ := scores.Float("sy")
		sy2, _ := scores.Float("sy2")
		fs := FoldScore{Fold: f, N: int(n)}
		if n > 0 {
			fs.MSE = sse / n
			fs.MAE = sae / n
			sst := sy2 - sy*sy/n
			if sst > 0 {
				fs.R2 = 1 - sse/sst
			}
		}
		folds = append(folds, fs)
		meanMSE += fs.MSE / float64(k)
		meanMAE += fs.MAE / float64(k)
		meanR2 += fs.R2 / float64(k)
	}
	return Result{
		"folds":    folds,
		"mean_mse": meanMSE,
		"mean_mae": meanMAE,
		"mean_r2":  meanR2,
	}, nil
}
