package algorithms

import (
	"fmt"
	"math"
	"testing"

	"mip/internal/engine"
	"mip/internal/federation"
	"mip/internal/synth"
)

func TestNaiveBayesTrainsSensibleModel(t *testing.T) {
	m, _ := testFed(t, 3, 250, false)
	req := Request{
		Datasets: []string{"edsd"},
		Y:        []string{"alzheimerbroadcategory"},
		X:        []string{"lefthippocampus", "p_tau", "gender"},
		Parameters: map[string]any{
			"classes": []any{"CN", "MCI", "AD"},
			"levels":  map[string]any{"gender": []any{"F", "M"}},
		},
	}
	res := runAlg(t, m, "naive_bayes", req)
	model := res["model"].(*NBModel)
	if len(model.Priors) != 3 {
		t.Fatalf("priors = %v", model.Priors)
	}
	var psum float64
	for _, p := range model.Priors {
		psum += p
	}
	near(t, psum, 1, 1e-9, "priors sum")
	// Class-conditional hippocampus means must be ordered CN > MCI > AD.
	hippIdx := 0 // first numeric feature
	cn, mci, ad := model.Mean[0][hippIdx], model.Mean[1][hippIdx], model.Mean[2][hippIdx]
	if !(cn > mci && mci > ad) {
		t.Fatalf("class means not ordered: CN=%v MCI=%v AD=%v", cn, mci, ad)
	}
	// Categorical probs normalized per variable.
	for c := 0; c < 3; c++ {
		var s float64
		for _, p := range model.CatProb[c][:2] {
			s += p
		}
		near(t, s, 1, 1e-9, "cat prob sum")
	}
}

func TestNaiveBayesCV(t *testing.T) {
	m, _ := testFed(t, 3, 300, false)
	req := Request{
		Datasets: []string{"edsd"},
		Y:        []string{"alzheimerbroadcategory"},
		X:        []string{"lefthippocampus", "p_tau", "ab42", "minimentalstate"},
		Parameters: map[string]any{
			"classes":   []any{"CN", "MCI", "AD"},
			"num_folds": 3,
		},
	}
	res := runAlg(t, m, "naive_bayes_cv", req)
	acc := res["mean_accuracy"].(float64)
	if acc < 0.5 { // 3-class problem; chance ~0.33
		t.Fatalf("CV accuracy = %v, want clearly above chance", acc)
	}
	conf := res["confusion"].([][]float64)
	if len(conf) != 3 {
		t.Fatalf("confusion shape %d", len(conf))
	}
	if f1 := res["macro_f1"].(float64); f1 <= 0 || f1 > 1 {
		t.Fatalf("macro F1 = %v", f1)
	}
	folds := res["folds"].([]map[string]any)
	if len(folds) != 3 {
		t.Fatalf("folds = %d", len(folds))
	}
}

func TestCARTClassification(t *testing.T) {
	m, _ := testFed(t, 3, 300, false)
	req := Request{
		Datasets: []string{"edsd"},
		Y:        []string{"alzheimerbroadcategory"},
		X:        []string{"lefthippocampus", "p_tau", "gender"},
		Parameters: map[string]any{
			"classes":   []any{"CN", "MCI", "AD"},
			"levels":    map[string]any{"gender": []any{"F", "M"}},
			"max_depth": 3,
		},
	}
	res := runAlg(t, m, "cart", req)
	tree := res["tree"].(*Tree)
	if len(tree.Nodes) < 3 {
		t.Fatalf("tree did not grow: %d nodes", len(tree.Nodes))
	}
	acc := res["accuracy"].(float64)
	if acc < 0.5 {
		t.Fatalf("training accuracy = %v", acc)
	}
	// Depth bound respected.
	for _, n := range tree.Nodes {
		if n.Depth > 3 {
			t.Fatalf("node %d exceeds max depth: %d", n.ID, n.Depth)
		}
		if !n.Leaf && n.Var == "" && (n.Left != 0 || n.Right != 0) {
			t.Fatalf("internal node %d without split var", n.ID)
		}
	}
}

func TestCARTRegression(t *testing.T) {
	m, pooled := testFed(t, 3, 300, false)
	req := Request{
		Datasets: []string{"edsd"},
		Y:        []string{"minimentalstate"},
		X:        []string{"lefthippocampus", "p_tau"},
		Parameters: map[string]any{
			"max_depth": 3,
		},
	}
	res := runAlg(t, m, "cart", req)
	mse := res["mse"].(float64)
	// The tree must beat the trivial predictor (global variance).
	ys := pooledColumns(t, pooled, []string{"minimentalstate", "lefthippocampus", "p_tau"}, "")[0]
	var mean, varY float64
	for _, y := range ys {
		mean += y
	}
	mean /= float64(len(ys))
	for _, y := range ys {
		varY += (y - mean) * (y - mean)
	}
	varY /= float64(len(ys))
	if mse >= varY {
		t.Fatalf("tree MSE %v not better than variance %v", mse, varY)
	}
}

func TestID3(t *testing.T) {
	m, _ := testFed(t, 3, 300, false)
	req := Request{
		Datasets: []string{"edsd"},
		Y:        []string{"alzheimerbroadcategory"},
		X:        []string{"gender", "psy", "va"},
		Parameters: map[string]any{
			"classes": []any{"CN", "MCI", "AD"},
			"levels": map[string]any{
				"gender": []any{"F", "M"},
				"psy":    []any{"yes", "no"},
				"va":     []any{"yes", "no"},
			},
			"max_depth": 3,
		},
	}
	res := runAlg(t, m, "id3", req)
	tree := res["tree"].(*Tree)
	acc := res["accuracy"].(float64)
	if acc <= 0.2 || acc > 1 {
		t.Fatalf("accuracy = %v", acc)
	}
	// Multiway nodes must have one child per level.
	for _, n := range tree.Nodes {
		if len(n.Children) > 0 {
			found := false
			for _, f := range tree.Features {
				if f.Name == n.Var && len(n.Children) == len(f.Levels) {
					found = true
				}
			}
			if !found {
				t.Fatalf("node %d children mismatch", n.ID)
			}
		}
	}
	// Features must not repeat along a path.
	var walk func(id int, seen map[string]bool)
	walk = func(id int, seen map[string]bool) {
		n := tree.Nodes[id]
		if n.Var == "" {
			return
		}
		if seen[n.Var] {
			t.Fatalf("feature %q repeated along a path", n.Var)
		}
		s2 := map[string]bool{n.Var: true}
		for k := range seen {
			s2[k] = true
		}
		for _, c := range n.Children {
			walk(c, s2)
		}
	}
	walk(0, map[string]bool{})
	if res["n_nodes"].(int) < 3 {
		t.Fatal("ID3 tree did not grow")
	}
}

// survivalTables builds two sites of survival cohorts.
func survivalTables(t *testing.T) []*engine.Table {
	t.Helper()
	var out []*engine.Table
	for i := 0; i < 2; i++ {
		tab, err := synth.Survival(synth.SurvivalSpec{
			Dataset: fmt.Sprintf("epi-site-%c", 'a'+i), Rows: 400, Seed: int64(50 + i),
		})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, tab)
	}
	return out
}

// survivalFed builds a 2-site federation of survival cohorts plus pooled.
func survivalFed(t *testing.T) (*federation.Master, *engine.DB) {
	t.Helper()
	tables := survivalTables(t)
	return fedOver(t, tables, false, false), pooledDB(t, tables)
}

func TestKaplanMeier(t *testing.T) {
	m, pooled := survivalFed(t)
	req := Request{
		Y:          []string{"time", "event"},
		X:          []string{"grp"},
		Parameters: map[string]any{"groups": []any{"control", "treated"}},
	}
	res := runAlg(t, m, "kaplan_meier", req)
	curves := res["curves"].([]KMCurve)
	if len(curves) != 2 {
		t.Fatalf("curves = %d", len(curves))
	}
	for _, c := range curves {
		// Survival must be non-increasing in [0, 1].
		prev := 1.0
		for _, p := range c.Points {
			if p.Survival > prev+1e-12 || p.Survival < 0 || p.Survival > 1 {
				t.Fatalf("curve %s not monotone: %v after %v", c.Group, p.Survival, prev)
			}
			if p.CILow > p.Survival+1e-12 || p.CIHigh < p.Survival-1e-12 {
				t.Fatalf("CI does not bracket survival at t=%v", p.Time)
			}
			prev = p.Survival
		}
	}
	// Treated group (lower hazard) must sit above control at the median time.
	ctrl, treat := curves[0], curves[1]
	if ctrl.Group != "control" {
		ctrl, treat = treat, ctrl
	}
	mid := len(ctrl.Points) / 2
	if treat.Points[mid].Survival <= ctrl.Points[mid].Survival {
		t.Fatalf("treated survival %v should exceed control %v",
			treat.Points[mid].Survival, ctrl.Points[mid].Survival)
	}
	// Log-rank must detect the hazard difference.
	p := res["logrank_p"].(float64)
	if p > 0.01 {
		t.Fatalf("log-rank p = %v, want < 0.01", p)
	}
	// n totals match pooled counts.
	tab, _ := pooled.Query(`SELECT count(*) AS n FROM data WHERE grp = 'control'`)
	if ctrl.N != float64(tab.Col(0).Int64s()[0]) {
		t.Fatalf("control n = %v", ctrl.N)
	}
}

func TestKaplanMeierSingleGroup(t *testing.T) {
	m, _ := survivalFed(t)
	res := runAlg(t, m, "kaplan_meier", Request{Y: []string{"time", "event"}})
	curves := res["curves"].([]KMCurve)
	if len(curves) != 1 || curves[0].Group != "all" {
		t.Fatalf("curves = %+v", curves)
	}
	if _, hasLR := res["logrank_p"]; hasLR {
		t.Fatal("single group must not produce a log-rank test")
	}
}

// calibrationTables builds three sites holding predicted probabilities
// with a known miscalibration and binary outcomes.
func calibrationTables(t *testing.T, miscalibrated bool) []*engine.Table {
	t.Helper()
	schema := engine.Schema{
		{Name: "row_id", Type: engine.Int64},
		{Name: "dataset", Type: engine.String},
		{Name: "pred", Type: engine.Float64},
		{Name: "outcome", Type: engine.String},
	}
	var out []*engine.Table
	rng := newTestRNG()
	for w := 0; w < 3; w++ {
		tab := engine.NewTable(schema)
		for i := 0; i < 400; i++ {
			p := 0.05 + 0.9*rng.Float64()
			trueP := p
			if miscalibrated {
				// The model systematically underestimates risk.
				trueP = math.Min(1, p*1.4)
			}
			y := "no"
			if rng.Float64() < trueP {
				y = "yes"
			}
			if err := tab.AppendRow(int64(w*1000+i), "d", p, y); err != nil {
				t.Fatal(err)
			}
		}
		out = append(out, tab)
	}
	return out
}

type simpleRNG struct{ state uint64 }

func newTestRNG() *simpleRNG { return &simpleRNG{state: 0x853c49e6748fea9b} }

func (r *simpleRNG) Float64() float64 {
	r.state = r.state*6364136223846793005 + 1442695040888963407
	return float64(r.state>>11) / float64(1<<53)
}

func TestCalibrationBeltWellCalibrated(t *testing.T) {
	m := fedOver(t, calibrationTables(t, false), false, false)
	req := Request{
		Y:          []string{"outcome"},
		X:          []string{"pred"},
		Parameters: map[string]any{"pos_level": "yes"},
	}
	res := runAlg(t, m, "calibration_belt", req)
	cb := res["calibration_belt"].(CalBeltResult)
	if cb.PValue < 0.01 {
		t.Fatalf("well-calibrated data rejected: p = %v", cb.PValue)
	}
	if len(cb.Belt) != 100 {
		t.Fatalf("belt points = %d", len(cb.Belt))
	}
	for _, bp := range cb.Belt {
		if bp.Low95 > bp.Low80 || bp.High95 < bp.High80 {
			t.Fatalf("95%% belt must contain 80%% belt at p=%v", bp.P)
		}
		if bp.Fitted < bp.Low80 || bp.Fitted > bp.High80 {
			t.Fatalf("fitted curve outside its own belt at p=%v", bp.P)
		}
	}
}

func TestCalibrationBeltDetectsMiscalibration(t *testing.T) {
	m := fedOver(t, calibrationTables(t, true), false, false)
	req := Request{
		Y:          []string{"outcome"},
		X:          []string{"pred"},
		Parameters: map[string]any{"pos_level": "yes"},
	}
	res := runAlg(t, m, "calibration_belt", req)
	cb := res["calibration_belt"].(CalBeltResult)
	if cb.PValue > 0.05 {
		t.Fatalf("miscalibration not detected: p = %v", cb.PValue)
	}
	if cb.UnderOver != "underestimates risk" && cb.UnderOver != "mixed miscalibration" {
		t.Fatalf("verdict = %q", cb.UnderOver)
	}
}

func TestAlgorithmRegistryComplete(t *testing.T) {
	// The paper lists 15+ integrated algorithms; every one must be here.
	want := []string{
		"anova_oneway", "anova_twoway", "calibration_belt", "cart",
		"descriptive_stats", "id3", "kaplan_meier", "kmeans",
		"linear_regression", "linear_regression_cv",
		"logistic_regression", "logistic_regression_cv",
		"naive_bayes", "naive_bayes_cv", "pca",
		"pearson_correlation", "ttest_independent", "ttest_onesample", "ttest_paired",
	}
	names := Names()
	got := map[string]bool{}
	for _, n := range names {
		got[n] = true
	}
	for _, w := range want {
		if !got[w] {
			t.Errorf("missing algorithm %q", w)
		}
	}
	if len(names) < 15 {
		t.Fatalf("only %d algorithms registered", len(names))
	}
	specs := Specs()
	if len(specs) != len(names) {
		t.Fatal("Specs/Names mismatch")
	}
	for _, s := range specs {
		if s.Label == "" || s.Desc == "" {
			t.Errorf("algorithm %q lacks label/description", s.Name)
		}
	}
}
