package algorithms

import (
	"fmt"
	"math"

	"mip/internal/engine"
	"mip/internal/federation"
	"mip/internal/stats"
)

// Calibration Belt (GiViTI): assesses the calibration of a probabilistic
// prediction against observed binary outcomes. The calibration curve is a
// polynomial logistic model on the logit of the predicted probability; the
// degree grows by forward likelihood-ratio selection, the belt is the
// pointwise confidence region of the fitted curve, and the calibration
// test compares the fitted curve against perfect calibration (the
// identity). Each Newton iteration is one federated aggregation round.

func init() {
	federation.RegisterLocal("calbelt_grad_local", calbeltGradLocal)
	Register(&CalibrationBelt{})
}

// calbeltArgs are the kwargs of the calibration-belt step: the predicted
// probability and outcome columns, the positive level, the polynomial
// degree and its degree+1 coefficients.
type calbeltArgs struct {
	PVar     string    `json:"p_var"`
	Y        string    `json:"y"`
	PosLevel string    `json:"pos_level"`
	Degree   int       `json:"degree"`
	Beta     []float64 `json:"beta"`
}

// calbeltGradLocal: logistic gradient/Hessian/log-likelihood for the
// polynomial-in-logit design at the supplied coefficients.
func calbeltGradLocal(wctx *federation.WorkerCtx, data *engine.Table, kwargs federation.Kwargs) (federation.Transfer, error) {
	var a calbeltArgs
	if err := kwargs.Decode(&a); err != nil {
		return nil, err
	}
	degree, beta, posLevel := a.Degree, a.Beta, a.PosLevel
	if a.PVar == "" || a.Y == "" || posLevel == "" || degree < 1 || len(beta) != degree+1 {
		return nil, fmt.Errorf("algorithms: calbelt needs p_var, y, pos_level, degree and degree+1 beta kwargs")
	}
	ps, err := floatCol(data, a.PVar)
	if err != nil {
		return nil, err
	}
	ysRaw, err := stringCol(data, a.Y)
	if err != nil {
		return nil, err
	}
	p := degree + 1
	grad := make([]float64, p)
	hess := stats.NewDense(p, p)
	var ll, n, pos float64
	row := make([]float64, p)
	for i := range ps {
		z := logit(clampProb(ps[i]))
		row[0] = 1
		for d := 1; d <= degree; d++ {
			row[d] = row[d-1] * z
		}
		y := 0.0
		if ysRaw[i] == posLevel {
			y = 1
		}
		var eta float64
		for j := 0; j < p; j++ {
			eta += row[j] * beta[j]
		}
		mu := sigmoid(eta)
		w := mu * (1 - mu)
		r := y - mu
		for j := 0; j < p; j++ {
			grad[j] += row[j] * r
			for k2 := j; k2 < p; k2++ {
				hess.Add(j, k2, w*row[j]*row[k2])
			}
		}
		ll += y*safeLog(mu) + (1-y)*safeLog(1-mu)
		n++
		pos += y
	}
	for j := 0; j < p; j++ {
		for k2 := 0; k2 < j; k2++ {
			hess.Set(j, k2, hess.At(k2, j))
		}
	}
	return federation.Transfer{
		"n": federation.Scalar(n), "pos": federation.Scalar(pos), "grad": federation.Vector(grad),
		"hess": denseTensor(hess), "ll": federation.Scalar(ll),
	}, nil
}

func logit(p float64) float64 { return math.Log(p / (1 - p)) }

func clampProb(p float64) float64 {
	const eps = 1e-6
	if p < eps {
		return eps
	}
	if p > 1-eps {
		return 1 - eps
	}
	return p
}

// BeltPoint is one grid point of the calibration belt.
type BeltPoint struct {
	P      float64 `json:"p"`      // predicted probability
	Fitted float64 `json:"fitted"` // calibrated (observed) probability
	Low80  float64 `json:"low_80"`
	High80 float64 `json:"high_80"`
	Low95  float64 `json:"low_95"`
	High95 float64 `json:"high_95"`
}

// CalBeltResult is the full output.
type CalBeltResult struct {
	Degree    int         `json:"degree"`
	N         int         `json:"n"`
	TestStat  float64     `json:"test_stat"` // LR vs perfect calibration
	PValue    float64     `json:"p_value"`
	Belt      []BeltPoint `json:"belt"`
	Coef      []float64   `json:"coefficients"`
	UnderOver string      `json:"under_over"` // qualitative verdict
}

// CalibrationBelt implements the GiViTI calibration belt.
type CalibrationBelt struct{}

// Spec implements Algorithm.
func (*CalibrationBelt) Spec() Spec {
	return Spec{
		Name:  "calibration_belt",
		Label: "Calibration Belt",
		Desc:  "GiViTI calibration belt of a probabilistic prediction against binary outcomes: forward-selected polynomial-logit calibration curve, 80/95% belts and the LR calibration test.",
		Y:     VarSpec{Min: 1, Max: 1, Types: []string{"nominal"}, Doc: "observed outcome"},
		X:     VarSpec{Min: 1, Max: 1, Types: []string{"real"}, Doc: "predicted probability in (0,1)"},
		Parameters: []ParamSpec{
			{Name: "pos_level", Label: "Positive outcome level", Type: "string"},
			{Name: "max_degree", Label: "Maximum polynomial degree", Type: "int", Default: 4},
			{Name: "grid", Label: "Belt grid points", Type: "int", Default: 100},
		},
	}
}

// fitCalbelt runs federated Newton for a fixed degree; returns beta, its
// covariance (inverse Hessian) and the final log-likelihood.
func fitCalbelt(sess *federation.Session, req Request, degree int) (beta []float64, cov *stats.Dense, ll float64, n float64, err error) {
	p := degree + 1
	beta = make([]float64, p)
	beta[1] = 1 // start at the identity calibration
	vars := []string{req.Y[0], req.X[0]}
	var hess *stats.Dense
	for iter := 0; iter < 50; iter++ {
		agg, err2 := sess.Aggregate(federation.LocalRunSpec{
			Func:   "calbelt_grad_local",
			Vars:   vars,
			Filter: req.Filter,
			Kwargs: calbeltArgs{PVar: req.X[0], Y: req.Y[0],
				PosLevel: req.ParamString("pos_level", ""), Degree: degree, Beta: beta},
		})
		if err2 != nil {
			return nil, nil, 0, 0, err2
		}
		n, _ = agg.Float("n")
		pos, _ := agg.Float("pos")
		if n <= float64(p) || pos == 0 || pos == n {
			return nil, nil, 0, 0, fmt.Errorf("algorithms: calibration belt cannot fit (n=%v, positives=%v)", n, pos)
		}
		grad, _ := agg.Floats("grad")
		hess, err2 = aggDense(agg, "hess")
		if err2 != nil {
			return nil, nil, 0, 0, err2
		}
		ll, _ = agg.Float("ll")
		step, err2 := stats.SolveSPD(hess, grad)
		if err2 != nil {
			step, err2 = stats.SolveRidge(hess, grad, 1e-6)
			if err2 != nil {
				return nil, nil, 0, 0, err2
			}
		}
		var delta float64
		for j := range beta {
			beta[j] += step[j]
			delta += step[j] * step[j]
		}
		if math.Sqrt(delta) < 1e-9 {
			break
		}
	}
	cov, err = stats.InvSPD(hess)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	return beta, cov, ll, n, nil
}

// identityLL evaluates the log-likelihood of the perfect-calibration model
// (η = logit(p)) in one round.
func identityLL(sess *federation.Session, req Request) (float64, error) {
	agg, err := sess.Aggregate(federation.LocalRunSpec{
		Func:   "calbelt_grad_local",
		Vars:   []string{req.Y[0], req.X[0]},
		Filter: req.Filter,
		Kwargs: calbeltArgs{PVar: req.X[0], Y: req.Y[0],
			PosLevel: req.ParamString("pos_level", ""), Degree: 1, Beta: []float64{0, 1}},
	})
	if err != nil {
		return 0, err
	}
	return agg.Float("ll")
}

// Run implements Algorithm.
func (a *CalibrationBelt) Run(sess *federation.Session, req Request) (Result, error) {
	if err := requireVars(a.Spec(), req); err != nil {
		return nil, err
	}
	if req.ParamString("pos_level", "") == "" {
		return nil, fmt.Errorf("algorithms: calibration_belt needs parameter pos_level")
	}
	maxDegree := req.ParamInt("max_degree", 4)
	grid := req.ParamInt("grid", 100)

	// Forward degree selection by LR tests at 95%.
	degree := 1
	beta, cov, ll, n, err := fitCalbelt(sess, req, 1)
	if err != nil {
		return nil, err
	}
	for d := 2; d <= maxDegree; d++ {
		b2, c2, ll2, _, err := fitCalbelt(sess, req, d)
		if err != nil {
			break
		}
		lr := 2 * (ll2 - ll)
		if lr < 0 {
			lr = 0
		}
		if 1-stats.ChiSquaredCDF(lr, 1) >= 0.05 {
			break // higher degree not justified
		}
		degree, beta, cov, ll = d, b2, c2, ll2
	}

	// Calibration test: LR of the fitted curve vs the identity.
	llID, err := identityLL(sess, req)
	if err != nil {
		return nil, err
	}
	stat := 2 * (ll - llID)
	if stat < 0 {
		stat = 0
	}
	df := float64(degree + 1)
	pValue := 1 - stats.ChiSquaredCDF(stat, df)

	// Belt over the probability grid.
	res := CalBeltResult{Degree: degree, N: int(n), TestStat: stat, PValue: pValue, Coef: beta}
	z80 := stats.NormalQuantile(0.90)
	z95 := stats.NormalQuantile(0.975)
	x := make([]float64, degree+1)
	var above, below int
	for g := 0; g < grid; g++ {
		p := clampProb((float64(g) + 0.5) / float64(grid))
		z := logit(p)
		x[0] = 1
		for d := 1; d <= degree; d++ {
			x[d] = x[d-1] * z
		}
		var eta, v float64
		for i := range x {
			eta += x[i] * beta[i]
			for j := range x {
				v += x[i] * cov.At(i, j) * x[j]
			}
		}
		se := math.Sqrt(v)
		bp := BeltPoint{
			P:      p,
			Fitted: sigmoid(eta),
			Low80:  sigmoid(eta - z80*se),
			High80: sigmoid(eta + z80*se),
			Low95:  sigmoid(eta - z95*se),
			High95: sigmoid(eta + z95*se),
		}
		res.Belt = append(res.Belt, bp)
		if bp.Low95 > p {
			above++ // observed exceeds predicted: underestimation
		}
		if bp.High95 < p {
			below++
		}
	}
	switch {
	case above > 0 && below > 0:
		res.UnderOver = "mixed miscalibration"
	case above > 0:
		res.UnderOver = "underestimates risk"
	case below > 0:
		res.UnderOver = "overestimates risk"
	default:
		res.UnderOver = "well calibrated"
	}
	return Result{"calibration_belt": res}, nil
}
