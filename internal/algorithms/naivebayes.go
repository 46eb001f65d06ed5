package algorithms

import (
	"fmt"
	"math"

	"mip/internal/engine"
	"mip/internal/federation"
)

// Federated naive Bayes: training is a single aggregation round of
// per-class counts, per-class Gaussian moments for numeric features and
// per-class level counts (Laplace-smoothed) for nominal features. The
// cross-validated variant trains k models by excluding each fold and then
// scores each fold locally, aggregating only confusion counts.

func init() {
	federation.RegisterLocal("nb_train_local", nbTrainLocal)
	federation.RegisterLocal("nb_score_local", nbScoreLocal)
	Register(&NaiveBayes{})
	Register(&NaiveBayesCV{})
}

// nbArgs are the kwargs of both naive Bayes steps: the outcome and its
// classes, the numeric and nominal features (with the nominal ones'
// levels), the cross-validation fold and, for scoring, the trained model.
type nbArgs struct {
	Y       string              `json:"y"`
	Classes []string            `json:"classes"`
	Numeric []string            `json:"numeric,omitempty"`
	Nominal []string            `json:"nominal,omitempty"`
	Levels  map[string][]string `json:"levels,omitempty"`
	foldArgs
	Model *NBModel `json:"model,omitempty"`
}

func nbParse(kwargs federation.Kwargs) (*nbArgs, error) {
	a := &nbArgs{}
	if err := kwargs.Decode(a); err != nil {
		return nil, err
	}
	if a.Y == "" {
		return nil, fmt.Errorf("algorithms: missing y kwarg")
	}
	if a.Classes == nil {
		return nil, fmt.Errorf("algorithms: missing classes kwarg")
	}
	return a, nil
}

// nbTrainLocal emits:
//
//	counts: [k]
//	gauss:  k × (numeric × 2) — (Σx, Σx²) per numeric feature, per class
//	cat:    k × Σ levels — level counts per nominal var, concatenated
func nbTrainLocal(wctx *federation.WorkerCtx, data *engine.Table, kwargs federation.Kwargs) (federation.Transfer, error) {
	a, err := nbParse(kwargs)
	if err != nil {
		return nil, err
	}
	ys, err := stringCol(data, a.Y)
	if err != nil {
		return nil, err
	}
	classIdx := map[string]int{}
	for i, c := range a.Classes {
		classIdx[c] = i
	}
	k := len(a.Classes)

	numCols := make([][]float64, len(a.Numeric))
	for i, v := range a.Numeric {
		c, err := floatCol(data, v)
		if err != nil {
			return nil, err
		}
		numCols[i] = c
	}
	nomCols := make([][]string, len(a.Nominal))
	nomWidth := 0
	for i, v := range a.Nominal {
		c, err := stringCol(data, v)
		if err != nil {
			return nil, err
		}
		nomCols[i] = c
		nomWidth += len(a.Levels[v])
	}

	numWidth := len(a.Numeric) * 2
	counts := make([]float64, k)
	gauss := make([]float64, k*numWidth)
	cat := make([]float64, k*nomWidth)
	useRow, err := a.selector(data)
	if err != nil {
		return nil, err
	}

	for r := range ys {
		if !useRow(r) {
			continue
		}
		c, ok := classIdx[ys[r]]
		if !ok {
			continue
		}
		counts[c]++
		for vi := range a.Numeric {
			x := numCols[vi][r]
			gauss[c*numWidth+vi*2] += x
			gauss[c*numWidth+vi*2+1] += x * x
		}
		off := c * nomWidth
		for vi, v := range a.Nominal {
			lv := a.Levels[v]
			for li, l := range lv {
				if nomCols[vi][r] == l {
					cat[off+li]++
					break
				}
			}
			off += len(lv)
		}
	}
	return federation.Transfer{"counts": federation.Vector(counts), "gauss": federation.Matrix(k, numWidth, gauss),
		"cat": federation.Matrix(k, nomWidth, cat)}, nil
}

// NBModel is the trained model the master assembles (and ships back to the
// workers for CV scoring).
type NBModel struct {
	Classes []string            `json:"classes"`
	Priors  []float64           `json:"priors"`
	Numeric []string            `json:"numeric"`
	Mean    [][]float64         `json:"mean"` // [class][numeric]
	Var     [][]float64         `json:"var"`
	Nominal []string            `json:"nominal"`
	Levels  map[string][]string `json:"levels"`
	CatProb [][]float64         `json:"cat_prob"` // [class][concat levels]
	N       float64             `json:"n"`
	Alpha   float64             `json:"alpha"` // Laplace smoothing
}

// assembleNB turns aggregated sufficient statistics into the model.
func assembleNB(a *nbArgs, counts []float64, gauss, cat [][]float64, alpha float64) (*NBModel, error) {
	k := len(a.Classes)
	model := &NBModel{
		Classes: a.Classes, Numeric: a.Numeric, Nominal: a.Nominal,
		Levels: a.Levels, Alpha: alpha,
	}
	var total float64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return nil, fmt.Errorf("algorithms: no training rows")
	}
	model.N = total
	for c := 0; c < k; c++ {
		model.Priors = append(model.Priors, (counts[c]+alpha)/(total+alpha*float64(k)))
		means := make([]float64, len(a.Numeric))
		vars := make([]float64, len(a.Numeric))
		for vi := range a.Numeric {
			n := counts[c]
			if n < 2 {
				means[vi], vars[vi] = 0, 1
				continue
			}
			s, s2 := gauss[c][vi*2], gauss[c][vi*2+1]
			means[vi] = s / n
			v := (s2 - s*s/n) / (n - 1)
			if v < 1e-9 {
				v = 1e-9
			}
			vars[vi] = v
		}
		model.Mean = append(model.Mean, means)
		model.Var = append(model.Var, vars)

		probs := make([]float64, len(cat[c]))
		off := 0
		for _, v := range a.Nominal {
			lv := a.Levels[v]
			var ltot float64
			for li := range lv {
				ltot += cat[c][off+li]
			}
			for li := range lv {
				probs[off+li] = (cat[c][off+li] + alpha) / (ltot + alpha*float64(len(lv)))
			}
			off += len(lv)
		}
		model.CatProb = append(model.CatProb, probs)
	}
	return model, nil
}

// predictNB returns the class index with maximal posterior for one row.
func predictNB(m *NBModel, numVals []float64, nomVals []string) int {
	best, bestLL := 0, math.Inf(-1)
	for c := range m.Classes {
		ll := math.Log(m.Priors[c])
		for vi := range m.Numeric {
			mu, v := m.Mean[c][vi], m.Var[c][vi]
			d := numVals[vi] - mu
			ll += -0.5*math.Log(2*math.Pi*v) - d*d/(2*v)
		}
		off := 0
		for ni, v := range m.Nominal {
			lv := m.Levels[v]
			matched := false
			for li, l := range lv {
				if nomVals[ni] == l {
					ll += math.Log(m.CatProb[c][off+li])
					matched = true
					break
				}
			}
			if !matched {
				ll += math.Log(m.Alpha / (m.Alpha * float64(len(lv)+1)))
			}
			off += len(lv)
		}
		if ll > bestLL {
			best, bestLL = c, ll
		}
	}
	return best
}

// nbScoreLocal classifies the local (fold) slice with the model from
// kwargs and returns the k×k confusion matrix.
func nbScoreLocal(wctx *federation.WorkerCtx, data *engine.Table, kwargs federation.Kwargs) (federation.Transfer, error) {
	a, err := nbParse(kwargs)
	if err != nil {
		return nil, err
	}
	model := a.Model
	if model == nil {
		return nil, fmt.Errorf("algorithms: missing model kwarg")
	}
	ys, err := stringCol(data, a.Y)
	if err != nil {
		return nil, err
	}
	classIdx := map[string]int{}
	for i, c := range model.Classes {
		classIdx[c] = i
	}
	numCols := make([][]float64, len(model.Numeric))
	for i, v := range model.Numeric {
		if numCols[i], err = floatCol(data, v); err != nil {
			return nil, err
		}
	}
	nomCols := make([][]string, len(model.Nominal))
	for i, v := range model.Nominal {
		if nomCols[i], err = stringCol(data, v); err != nil {
			return nil, err
		}
	}
	useRow, err := a.selector(data)
	if err != nil {
		return nil, err
	}
	k := len(model.Classes)
	conf := make([]float64, k*k)
	numVals := make([]float64, len(model.Numeric))
	nomVals := make([]string, len(model.Nominal))
	for r := range ys {
		if !useRow(r) {
			continue
		}
		truth, ok := classIdx[ys[r]]
		if !ok {
			continue
		}
		for vi := range numCols {
			numVals[vi] = numCols[vi][r]
		}
		for vi := range nomCols {
			nomVals[vi] = nomCols[vi][r]
		}
		conf[truth*k+predictNB(model, numVals, nomVals)]++
	}
	return federation.Transfer{"conf": federation.Matrix(k, k, conf)}, nil
}

// NaiveBayes implements naive Bayes training.
type NaiveBayes struct{}

// Spec implements Algorithm.
func (*NaiveBayes) Spec() Spec {
	return Spec{
		Name:  "naive_bayes",
		Label: "Naive Bayes Training",
		Desc:  "Gaussian/categorical naive Bayes trained from one federated round of class-conditional sufficient statistics.",
		Y:     VarSpec{Min: 1, Max: 1, Types: []string{"nominal"}},
		X:     VarSpec{Min: 1, Types: []string{"real", "integer", "nominal"}},
		Parameters: []ParamSpec{
			{Name: "classes", Label: "Outcome classes", Type: "string"},
			{Name: "levels", Label: "Nominal feature levels", Type: "string"},
			{Name: "alpha", Label: "Laplace smoothing", Type: "real", Default: 1.0},
		},
	}
}

// splitFeatures partitions X into numeric and nominal (by levels map).
func splitFeatures(req Request) (numeric, nominal []string, levels map[string][]string) {
	levels = levelsParam(req)
	for _, v := range req.X {
		if _, ok := levels[v]; ok {
			nominal = append(nominal, v)
		} else {
			numeric = append(numeric, v)
		}
	}
	return numeric, nominal, levels
}

// nbRequestArgs are the kwargs a request's naive Bayes steps share.
func nbRequestArgs(req Request) nbArgs {
	numeric, nominal, levels := splitFeatures(req)
	return nbArgs{Y: req.Y[0], Classes: req.ParamStrings("classes"), Numeric: numeric, Nominal: nominal, Levels: levels}
}

// trainNB runs one training round (fold < 0 trains on everything).
func trainNB(sess *federation.Session, req Request, fold, numFolds int) (*NBModel, error) {
	a := nbRequestArgs(req)
	if len(a.Classes) < 2 {
		return nil, fmt.Errorf("algorithms: naive_bayes needs parameter classes with >= 2 values")
	}
	vars := append([]string{req.Y[0]}, req.X...)
	if fold >= 0 {
		a.foldArgs = foldArgs{Fold: fold, NumFolds: numFolds, FoldMode: "exclude"}
		vars = append(vars, "row_id")
	}
	agg, err := sess.Aggregate(federation.LocalRunSpec{
		Func:   "nb_train_local",
		Vars:   vars,
		Filter: req.Filter,
		Kwargs: a,
	})
	if err != nil {
		return nil, err
	}
	counts, _ := agg.Floats("counts")
	gauss, err := agg.Matrix("gauss")
	if err != nil {
		return nil, err
	}
	cat, err := agg.Matrix("cat")
	if err != nil {
		return nil, err
	}
	return assembleNB(&a, counts, gauss, cat, req.ParamFloat("alpha", 1))
}

// Run implements Algorithm.
func (alg *NaiveBayes) Run(sess *federation.Session, req Request) (Result, error) {
	if err := requireVars(alg.Spec(), req); err != nil {
		return nil, err
	}
	model, err := trainNB(sess, req, -1, 0)
	if err != nil {
		return nil, err
	}
	return Result{"model": model}, nil
}

// NaiveBayesCV is naive Bayes with k-fold cross-validation.
type NaiveBayesCV struct{}

// Spec implements Algorithm.
func (*NaiveBayesCV) Spec() Spec {
	return Spec{
		Name:  "naive_bayes_cv",
		Label: "Naive Bayes with Cross Validation",
		Desc:  "k-fold cross-validated naive Bayes; per-fold confusion matrices, accuracy and macro precision/recall/F1.",
		Y:     VarSpec{Min: 1, Max: 1, Types: []string{"nominal"}},
		X:     VarSpec{Min: 1, Types: []string{"real", "integer", "nominal"}},
		Parameters: []ParamSpec{
			{Name: "classes", Label: "Outcome classes", Type: "string"},
			{Name: "levels", Label: "Nominal feature levels", Type: "string"},
			{Name: "alpha", Label: "Laplace smoothing", Type: "real", Default: 1.0},
			{Name: "num_folds", Label: "Folds", Type: "int", Default: 5},
		},
	}
}

// Run implements Algorithm.
func (alg *NaiveBayesCV) Run(sess *federation.Session, req Request) (Result, error) {
	if err := requireVars(alg.Spec(), req); err != nil {
		return nil, err
	}
	k := req.ParamInt("num_folds", 5)
	if k < 2 {
		return nil, fmt.Errorf("algorithms: num_folds must be >= 2")
	}
	args := nbRequestArgs(req)
	classes := args.Classes
	vars := append(append([]string{req.Y[0]}, req.X...), "row_id")

	kc := len(classes)
	total := make([][]float64, kc)
	for i := range total {
		total[i] = make([]float64, kc)
	}
	var folds []map[string]any
	var meanAcc float64
	for f := 0; f < k; f++ {
		model, err := trainNB(sess, req, f, k)
		if err != nil {
			return nil, fmt.Errorf("fold %d: %w", f, err)
		}
		args.Model = model
		args.foldArgs = foldArgs{Fold: f, NumFolds: k, FoldMode: "only"}
		agg, err := sess.Aggregate(federation.LocalRunSpec{
			Func:   "nb_score_local",
			Vars:   vars,
			Filter: req.Filter,
			Kwargs: args,
		})
		if err != nil {
			return nil, fmt.Errorf("fold %d scoring: %w", f, err)
		}
		conf, err := agg.Matrix("conf")
		if err != nil {
			return nil, err
		}
		var n, correct float64
		for i := 0; i < kc; i++ {
			for j := 0; j < kc; j++ {
				n += conf[i][j]
				total[i][j] += conf[i][j]
				if i == j {
					correct += conf[i][j]
				}
			}
		}
		acc := 0.0
		if n > 0 {
			acc = correct / n
		}
		meanAcc += acc / float64(k)
		folds = append(folds, map[string]any{"fold": f, "n": n, "accuracy": acc, "confusion": conf})
	}

	// Macro metrics over the pooled confusion matrix.
	var macroP, macroR float64
	for c := 0; c < kc; c++ {
		var tp, colSum, rowSum float64
		tp = total[c][c]
		for j := 0; j < kc; j++ {
			colSum += total[j][c]
			rowSum += total[c][j]
		}
		if colSum > 0 {
			macroP += tp / colSum / float64(kc)
		}
		if rowSum > 0 {
			macroR += tp / rowSum / float64(kc)
		}
	}
	macroF1 := 0.0
	if macroP+macroR > 0 {
		macroF1 = 2 * macroP * macroR / (macroP + macroR)
	}
	return Result{
		"folds":           folds,
		"confusion":       total,
		"classes":         classes,
		"mean_accuracy":   meanAcc,
		"macro_precision": macroP,
		"macro_recall":    macroR,
		"macro_f1":        macroF1,
	}, nil
}
