package algorithms

import (
	"fmt"
	"math"

	"mip/internal/engine"
	"mip/internal/federation"
	"mip/internal/stats"
)

// Federated logistic regression via iteratively reweighted least squares:
// each Newton iteration runs one local round that evaluates, at the current
// coefficients, the gradient Xᵀ(y − p), the Hessian XᵀWX and the
// log-likelihood over the worker's slice; the master aggregates and takes
// the Newton step. The training flow matches the paper's Training section
// (per-iteration aggregation of model updates).

func init() {
	federation.RegisterLocal("logreg_grad_local", logregGradLocal)
	federation.RegisterLocal("logreg_score_local", logregScoreLocal)
	Register(&LogisticRegression{})
	Register(&LogisticRegressionCV{})
}

// logregData decodes the regression kwargs and returns the step's design
// matrix and 0/1 outcome, checked against the coefficients.
func logregData(data *engine.Table, kwargs federation.Kwargs) ([]float64, *stats.Dense, []float64, error) {
	a, err := decodeModel(kwargs)
	if err != nil {
		return nil, nil, nil, err
	}
	if a.PosLevel == "" {
		return nil, nil, nil, fmt.Errorf("algorithms: missing pos_level kwarg")
	}
	ys, err := stringCol(data, a.Y)
	if err != nil {
		return nil, nil, nil, err
	}
	x, y, err := a.rows(data, func(r int) float64 {
		if ys[r] == a.PosLevel {
			return 1
		}
		return 0
	})
	if err == nil && len(a.Beta) != x.Cols() {
		err = fmt.Errorf("algorithms: beta kwarg has %d coefficients, design has %d", len(a.Beta), x.Cols())
	}
	return a.Beta, x, y, err
}

func logregGradLocal(wctx *federation.WorkerCtx, data *engine.Table, kwargs federation.Kwargs) (federation.Transfer, error) {
	beta, x, y, err := logregData(data, kwargs)
	if err != nil {
		return nil, err
	}
	p := x.Cols()
	grad := make([]float64, p)
	hess := stats.NewDense(p, p)
	var ll, pos float64
	for i := 0; i < x.Rows(); i++ {
		var eta float64
		for j := 0; j < p; j++ {
			eta += x.At(i, j) * beta[j]
		}
		mu := sigmoid(eta)
		w := mu * (1 - mu)
		r := y[i] - mu
		for j := 0; j < p; j++ {
			grad[j] += x.At(i, j) * r
			for k2 := j; k2 < p; k2++ {
				hess.Add(j, k2, w*x.At(i, j)*x.At(i, k2))
			}
		}
		// Numerically safe log-likelihood.
		ll += y[i]*safeLog(mu) + (1-y[i])*safeLog(1-mu)
		pos += y[i]
	}
	for j := 0; j < p; j++ {
		for k2 := 0; k2 < j; k2++ {
			hess.Set(j, k2, hess.At(k2, j))
		}
	}
	return federation.Transfer{
		"n":    federation.Scalar(float64(x.Rows())),
		"pos":  federation.Scalar(pos),
		"grad": federation.Vector(grad),
		"hess": denseTensor(hess),
		"ll":   federation.Scalar(ll),
	}, nil
}

// logregScoreLocal evaluates held-out fold metrics for given coefficients:
// the confusion counts at threshold 0.5 and the binned score histograms
// that let the master build the ROC curve without seeing any row.
const rocBins = 100

func logregScoreLocal(wctx *federation.WorkerCtx, data *engine.Table, kwargs federation.Kwargs) (federation.Transfer, error) {
	beta, x, y, err := logregData(data, kwargs)
	if err != nil {
		return nil, err
	}
	posBins := make([]float64, rocBins)
	negBins := make([]float64, rocBins)
	conf := make([]float64, 4) // tp fp fn tn
	for i := 0; i < x.Rows(); i++ {
		var eta float64
		for j := range beta {
			eta += x.At(i, j) * beta[j]
		}
		mu := sigmoid(eta)
		b := int(mu * rocBins)
		if b >= rocBins {
			b = rocBins - 1
		}
		if y[i] == 1 {
			posBins[b]++
			if mu >= 0.5 {
				conf[0]++
			} else {
				conf[2]++
			}
		} else {
			negBins[b]++
			if mu >= 0.5 {
				conf[1]++
			} else {
				conf[3]++
			}
		}
	}
	return federation.Transfer{"pos_bins": federation.Vector(posBins), "neg_bins": federation.Vector(negBins),
		"conf": federation.Vector(conf)}, nil
}

func sigmoid(x float64) float64 {
	if x >= 0 {
		z := math.Exp(-x)
		return 1 / (1 + z)
	}
	z := math.Exp(x)
	return z / (1 + z)
}

func safeLog(x float64) float64 {
	if x < 1e-12 {
		x = 1e-12
	}
	return math.Log(x)
}

// LogRegModel is the fitted-model summary.
type LogRegModel struct {
	Coefficients []LogRegCoef `json:"coefficients"`
	N            int          `json:"n"`
	NPositive    int          `json:"n_positive"`
	LogLik       float64      `json:"log_lik"`
	AIC          float64      `json:"aic"`
	BIC          float64      `json:"bic"`
	Iterations   int          `json:"iterations"`
	Converged    bool         `json:"converged"`
}

// LogRegCoef is one coefficient row with odds ratios.
type LogRegCoef struct {
	Name      string  `json:"name"`
	Estimate  float64 `json:"estimate"`
	StdErr    float64 `json:"std_err"`
	ZValue    float64 `json:"z_value"`
	PValue    float64 `json:"p_value"`
	OddsRatio float64 `json:"odds_ratio"`
	ORLow     float64 `json:"or_ci_low"`
	ORHigh    float64 `json:"or_ci_high"`
}

// LogisticRegression implements federated logistic regression.
type LogisticRegression struct{}

// Spec implements Algorithm.
func (*LogisticRegression) Spec() Spec {
	return Spec{
		Name:  "logistic_regression",
		Label: "Logistic Regression",
		Desc:  "Binary logistic regression via federated Newton-Raphson; Wald tests, odds ratios, AIC/BIC.",
		Y:     VarSpec{Min: 1, Max: 1, Types: []string{"nominal"}},
		X:     VarSpec{Min: 1, Types: []string{"real", "integer", "nominal"}},
		Parameters: []ParamSpec{
			{Name: "pos_level", Label: "Positive outcome level", Type: "string"},
			{Name: "max_iter", Label: "Max Newton iterations", Type: "int", Default: 25},
			{Name: "tol", Label: "Convergence tolerance", Type: "real", Default: 1e-8},
			{Name: "levels", Label: "Nominal covariate levels", Type: "string"},
			{Name: "alpha", Label: "CI significance", Type: "real", Default: 0.05},
		},
	}
}

// Run implements Algorithm.
func (a *LogisticRegression) Run(sess *federation.Session, req Request) (Result, error) {
	if err := requireVars(a.Spec(), req); err != nil {
		return nil, err
	}
	model, _, err := fitLogReg(sess, req, -1, 0)
	if err != nil {
		return nil, err
	}
	return Result{"model": model}, nil
}

// fitLogReg runs the IRLS flow; fold >= 0 excludes that fold.
func fitLogReg(sess *federation.Session, req Request, fold, numFolds int) (*LogRegModel, []float64, error) {
	posLevel := req.ParamString("pos_level", "")
	if posLevel == "" {
		return nil, nil, fmt.Errorf("algorithms: logistic_regression needs parameter pos_level")
	}
	levels := levelsParam(req)
	d := newDesign(req.X, levels)
	p := d.Width()
	beta := make([]float64, p)
	maxIter := req.ParamInt("max_iter", 25)
	tol := req.ParamFloat("tol", 1e-8)

	vars := append(append([]string{}, req.Y...), req.X...)
	if fold >= 0 {
		vars = append(vars, "row_id")
	}
	args := modelArgs{Y: req.Y[0], X: req.X, Levels: levels, PosLevel: posLevel, Beta: beta}
	if fold >= 0 {
		args.foldArgs = foldArgs{Fold: fold, NumFolds: numFolds, FoldMode: "exclude"}
	}

	model := &LogRegModel{}
	var hessInv *stats.Dense
	var lastLL float64
	for iter := 1; iter <= maxIter; iter++ {
		agg, err := sess.Aggregate(federation.LocalRunSpec{
			Func:   "logreg_grad_local",
			Vars:   vars,
			Filter: req.Filter,
			Kwargs: args,
		})
		if err != nil {
			return nil, nil, err
		}
		n, _ := agg.Float("n")
		pos, _ := agg.Float("pos")
		grad, _ := agg.Floats("grad")
		hess, err := aggDense(agg, "hess")
		if err != nil {
			return nil, nil, err
		}
		ll, _ := agg.Float("ll")
		if n <= float64(p) {
			return nil, nil, fmt.Errorf("algorithms: %v observations cannot identify %d coefficients", n, p)
		}
		if pos == 0 || pos == n {
			return nil, nil, fmt.Errorf("algorithms: outcome has a single class in the selected data")
		}
		step, err := stats.SolveSPD(hess, grad)
		if err != nil {
			// Escalating ridge: aggregation noise (secure aggregation with
			// DP) can push the Hessian off positive definiteness; damping
			// restores a usable ascent direction.
			for _, lambda := range []float64{1e-6, 1e-3, 1, 1e3} {
				step, err = stats.SolveRidge(hess, grad, lambda)
				if err == nil {
					break
				}
			}
			if err != nil {
				return nil, nil, fmt.Errorf("algorithms: singular Hessian: %w", err)
			}
		}
		var delta float64
		for j := range beta {
			beta[j] += step[j]
			delta += step[j] * step[j]
		}
		model.N = int(n)
		model.NPositive = int(pos)
		model.Iterations = iter
		lastLL = ll
		if math.Sqrt(delta) < tol || math.Abs(ll-model.LogLik) < tol && iter > 1 {
			model.Converged = true
			hessInv, err = invSPDDamped(hess)
			if err != nil {
				return nil, nil, err
			}
			break
		}
		model.LogLik = ll
		if iter == maxIter {
			hessInv, err = invSPDDamped(hess)
			if err != nil {
				return nil, nil, err
			}
		}
	}
	model.LogLik = lastLL
	model.AIC = -2*model.LogLik + 2*float64(p)
	model.BIC = -2*model.LogLik + float64(p)*math.Log(float64(model.N))

	alpha := req.ParamFloat("alpha", 0.05)
	zcrit := stats.NormalQuantile(1 - alpha/2)
	for j, name := range d.Names {
		se := math.Sqrt(hessInv.At(j, j))
		z := beta[j] / se
		model.Coefficients = append(model.Coefficients, LogRegCoef{
			Name: name, Estimate: beta[j], StdErr: se, ZValue: z,
			PValue:    2 * (1 - stats.NormalCDF(math.Abs(z))),
			OddsRatio: math.Exp(beta[j]),
			ORLow:     math.Exp(beta[j] - zcrit*se),
			ORHigh:    math.Exp(beta[j] + zcrit*se),
		})
	}
	return model, beta, nil
}

// LogisticRegressionCV is k-fold cross-validated logistic regression.
type LogisticRegressionCV struct{}

// Spec implements Algorithm.
func (*LogisticRegressionCV) Spec() Spec {
	return Spec{
		Name:  "logistic_regression_cv",
		Label: "Logistic Regression Cross-validation",
		Desc:  "k-fold CV of the federated logistic model; accuracy, precision, recall, F1 and binned-ROC AUC per fold.",
		Y:     VarSpec{Min: 1, Max: 1, Types: []string{"nominal"}},
		X:     VarSpec{Min: 1, Types: []string{"real", "integer", "nominal"}},
		Parameters: []ParamSpec{
			{Name: "pos_level", Label: "Positive outcome level", Type: "string"},
			{Name: "num_folds", Label: "Folds", Type: "int", Default: 5},
			{Name: "levels", Label: "Nominal covariate levels", Type: "string"},
		},
	}
}

// ClassScore is one fold's held-out classification metrics.
type ClassScore struct {
	Fold      int     `json:"fold"`
	N         int     `json:"n"`
	Accuracy  float64 `json:"accuracy"`
	Precision float64 `json:"precision"`
	Recall    float64 `json:"recall"`
	F1        float64 `json:"f1"`
	AUC       float64 `json:"auc"`
}

// Run implements Algorithm.
func (a *LogisticRegressionCV) Run(sess *federation.Session, req Request) (Result, error) {
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

	var folds []ClassScore
	means := ClassScore{}
	for f := 0; f < k; f++ {
		_, beta, err := fitLogReg(sess, req, f, k)
		if err != nil {
			return nil, fmt.Errorf("fold %d: %w", f, err)
		}
		agg, err := sess.Aggregate(federation.LocalRunSpec{
			Func:   "logreg_score_local",
			Vars:   vars,
			Filter: req.Filter,
			Kwargs: modelArgs{Y: req.Y[0], X: req.X, Levels: levels,
				PosLevel: req.ParamString("pos_level", ""), Beta: beta,
				foldArgs: foldArgs{Fold: f, NumFolds: k, FoldMode: "only"}},
		})
		if err != nil {
			return nil, fmt.Errorf("fold %d scoring: %w", f, err)
		}
		conf, _ := agg.Floats("conf")
		posBins, _ := agg.Floats("pos_bins")
		negBins, _ := agg.Floats("neg_bins")
		tp, fp, fn, tn := conf[0], conf[1], conf[2], conf[3]
		n := tp + fp + fn + tn
		fs := ClassScore{Fold: f, N: int(n)}
		if n > 0 {
			fs.Accuracy = (tp + tn) / n
		}
		if tp+fp > 0 {
			fs.Precision = tp / (tp + fp)
		}
		if tp+fn > 0 {
			fs.Recall = tp / (tp + fn)
		}
		if fs.Precision+fs.Recall > 0 {
			fs.F1 = 2 * fs.Precision * fs.Recall / (fs.Precision + fs.Recall)
		}
		fs.AUC = binnedAUC(posBins, negBins)
		folds = append(folds, fs)
		means.Accuracy += fs.Accuracy / float64(k)
		means.Precision += fs.Precision / float64(k)
		means.Recall += fs.Recall / float64(k)
		means.F1 += fs.F1 / float64(k)
		means.AUC += fs.AUC / float64(k)
	}
	return Result{
		"folds":          folds,
		"mean_accuracy":  means.Accuracy,
		"mean_precision": means.Precision,
		"mean_recall":    means.Recall,
		"mean_f1":        means.F1,
		"mean_auc":       means.AUC,
	}, nil
}

// binnedAUC computes the ROC area from per-bin positive/negative counts by
// sweeping the threshold across bins (trapezoidal rule).
func binnedAUC(posBins, negBins []float64) float64 {
	var totalP, totalN float64
	for i := range posBins {
		totalP += posBins[i]
		totalN += negBins[i]
	}
	if totalP == 0 || totalN == 0 {
		return math.NaN()
	}
	// Sweep from the highest score bin down.
	var tp, fp, auc, prevTPR, prevFPR float64
	for b := len(posBins) - 1; b >= 0; b-- {
		tp += posBins[b]
		fp += negBins[b]
		tpr := tp / totalP
		fpr := fp / totalN
		auc += (fpr - prevFPR) * (tpr + prevTPR) / 2
		prevTPR, prevFPR = tpr, fpr
	}
	auc += (1 - prevFPR) * (1 + prevTPR) / 2
	return auc
}

// invSPDDamped inverts the Hessian, adding an escalating ridge when
// aggregation noise has pushed it off positive definiteness.
func invSPDDamped(h *stats.Dense) (*stats.Dense, error) {
	inv, err := stats.InvSPD(h)
	if err == nil {
		return inv, nil
	}
	for _, lambda := range []float64{1e-6, 1e-3, 1, 1e3} {
		d := h.Clone()
		for i := 0; i < d.Rows(); i++ {
			d.Add(i, i, lambda)
		}
		if inv, err = stats.InvSPD(d); err == nil {
			return inv, nil
		}
	}
	return nil, err
}
