package algorithms

import (
	"encoding/json"
	"fmt"
	"testing"

	"mip/internal/engine"
)

// TestTransportsAgree runs every registered algorithm over in-process
// workers and over the same hospitals behind HTTP, plain and Shamir-secure:
// the JSON of each Result must match byte for byte. A registered algorithm
// without a case fails the test.
func TestTransportsAgree(t *testing.T) {
	dx := []any{"CN", "MCI", "AD"}
	gender := map[string]any{"gender": []any{"F", "M"}}
	adCN := "alzheimerbroadcategory IN ('AD', 'CN')"
	dementia := func(t *testing.T) []*engine.Table { return dementiaTables(t, 3, 200) }
	survival := survivalTables
	calibration := func(t *testing.T) []*engine.Table { return calibrationTables(t, false) }
	type tcase struct {
		alg    string
		tables func(*testing.T) []*engine.Table
		req    Request
	}
	ds := []string{"edsd"}
	cases := []tcase{
		{"anova_oneway", dementia, Request{Datasets: ds, Y: []string{"lefthippocampus"}, X: []string{"alzheimerbroadcategory"},
			Parameters: map[string]any{"levels": dx}}},
		{"anova_twoway", dementia, Request{Datasets: ds, Y: []string{"lefthippocampus"}, X: []string{"alzheimerbroadcategory", "gender"},
			Parameters: map[string]any{"levels": map[string]any{"alzheimerbroadcategory": dx, "gender": []any{"F", "M"}}}}},
		{"calibration_belt", calibration, Request{Y: []string{"outcome"}, X: []string{"pred"},
			Parameters: map[string]any{"pos_level": "yes", "max_degree": 3, "grid": 20}}},
		{"cart", dementia, Request{Datasets: ds, Y: []string{"alzheimerbroadcategory"}, X: []string{"lefthippocampus", "p_tau", "gender"},
			Parameters: map[string]any{"classes": dx, "levels": gender, "max_depth": 3}}},
		{"cart", dementia, Request{Datasets: ds, Y: []string{"minimentalstate"}, X: []string{"lefthippocampus", "p_tau"},
			Parameters: map[string]any{"max_depth": 2}}},
		{"descriptive_stats", dementia, Request{Datasets: ds, Y: []string{"lefthippocampus", "ab42"}}},
		{"id3", dementia, Request{Datasets: ds, Y: []string{"alzheimerbroadcategory"}, X: []string{"gender", "psy", "va"},
			Parameters: map[string]any{"classes": dx, "max_depth": 2,
				"levels": map[string]any{"gender": []any{"F", "M"}, "psy": []any{"yes", "no"}, "va": []any{"yes", "no"}}}}},
		{"kaplan_meier", survival, Request{Y: []string{"time", "event"}, X: []string{"grp"},
			Parameters: map[string]any{"groups": []any{"control", "treated"}}}},
		{"kmeans", dementia, Request{Datasets: ds, Y: []string{"ab42", "p_tau"},
			Parameters: map[string]any{"k": 2, "iterations_max_number": 10}}},
		{"linear_regression", dementia, Request{Datasets: ds, Y: []string{"minimentalstate"}, X: []string{"lefthippocampus", "gender"},
			Parameters: map[string]any{"levels": gender}}},
		{"linear_regression_cv", dementia, Request{Datasets: ds, Y: []string{"minimentalstate"}, X: []string{"lefthippocampus", "p_tau"},
			Parameters: map[string]any{"num_folds": 3}}},
		{"logistic_regression", dementia, Request{Datasets: ds, Y: []string{"alzheimerbroadcategory"}, X: []string{"lefthippocampus", "p_tau"},
			Filter: adCN, Parameters: map[string]any{"pos_level": "AD"}}},
		{"logistic_regression_cv", dementia, Request{Datasets: ds, Y: []string{"alzheimerbroadcategory"}, X: []string{"lefthippocampus", "p_tau"},
			Filter: adCN, Parameters: map[string]any{"pos_level": "AD", "num_folds": 3}}},
		{"naive_bayes", dementia, Request{Datasets: ds, Y: []string{"alzheimerbroadcategory"}, X: []string{"lefthippocampus", "p_tau", "gender"},
			Parameters: map[string]any{"classes": dx, "levels": gender}}},
		{"naive_bayes_cv", dementia, Request{Datasets: ds, Y: []string{"alzheimerbroadcategory"}, X: []string{"lefthippocampus", "gender"},
			Parameters: map[string]any{"classes": dx, "levels": gender, "num_folds": 3}}},
		{"pca", dementia, Request{Datasets: ds, Y: []string{"lefthippocampus", "ab42", "p_tau"}}},
		{"pearson_correlation", dementia, Request{Datasets: ds, Y: []string{"minimentalstate"}, X: []string{"lefthippocampus", "p_tau"}}},
		{"ttest_independent", dementia, Request{Datasets: ds, Y: []string{"lefthippocampus"}, X: []string{"alzheimerbroadcategory"},
			Parameters: map[string]any{"groups": []any{"CN", "AD"}}}},
		{"ttest_onesample", dementia, Request{Datasets: ds, Y: []string{"minimentalstate"}, Parameters: map[string]any{"mu0": 25.0}}},
		{"ttest_paired", dementia, Request{Datasets: ds, Y: []string{"lefthippocampus", "righthippocampus"}}},
	}
	covered := map[string]bool{}
	for _, c := range cases {
		covered[c.alg] = true
	}
	for _, name := range Names() {
		if !covered[name] {
			t.Errorf("algorithm %q has no transport case", name)
		}
	}

	for _, secure := range []bool{false, true} {
		for i, c := range cases {
			label := fmt.Sprintf("%s#%d secure=%v", c.alg, i, secure)
			var got [2][]byte
			for j, overHTTP := range []bool{false, true} {
				m := fedOver(t, c.tables(t), overHTTP, secure)
				sess, err := m.NewSession(c.req.Datasets)
				if err != nil {
					t.Fatal(err)
				}
				res, err := Get(c.alg).Run(sess, c.req)
				if err != nil {
					t.Fatalf("%s http=%v: %v", label, overHTTP, err)
				}
				if got[j], err = json.Marshal(res); err != nil {
					t.Fatalf("%s http=%v: %v", label, overHTTP, err)
				}
			}
			if string(got[0]) != string(got[1]) {
				t.Errorf("%s: in-process and HTTP results differ\nin-process: %s\nHTTP:       %s", label, got[0], got[1])
			}
		}
	}
}
