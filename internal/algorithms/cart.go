package algorithms

import (
	"fmt"
	"math"

	"mip/internal/federation"
)

// CART: classification and regression trees grown breadth-first from
// federated histograms (see tree.go). Numeric features split on binned
// thresholds, categorical features on one-vs-rest level tests; Gini
// impurity drives classification splits, SSE reduction drives regression.

func init() {
	Register(&CART{})
}

// CART implements the classification-and-regression-trees algorithm.
type CART struct{}

// Spec implements Algorithm.
func (*CART) Spec() Spec {
	return Spec{
		Name:  "cart",
		Label: "CART",
		Desc:  "Classification and regression trees grown from federated split histograms; rows never leave the workers.",
		Y:     VarSpec{Min: 1, Max: 1, Doc: "nominal for classification, real for regression"},
		X:     VarSpec{Min: 1, Types: []string{"real", "integer", "nominal"}},
		Parameters: []ParamSpec{
			{Name: "classes", Label: "Outcome classes (classification)", Type: "string"},
			{Name: "levels", Label: "Nominal feature levels", Type: "string"},
			{Name: "max_depth", Label: "Maximum depth", Type: "int", Default: 4},
			{Name: "min_split", Label: "Minimum rows to split", Type: "int", Default: 20},
			{Name: "bins", Label: "Numeric histogram bins", Type: "int", Default: 32, Min: 1},
		},
	}
}

// Run implements Algorithm.
func (a *CART) Run(sess *federation.Session, req Request) (Result, error) {
	if err := requireVars(a.Spec(), req); err != nil {
		return nil, err
	}
	classes := req.ParamStrings("classes")
	classification := len(classes) > 0
	maxDepth := req.ParamInt("max_depth", 4)
	minSplit := float64(req.ParamInt("min_split", 20))
	bins := req.ParamInt("bins", 32)
	if bins < 1 {
		return nil, fmt.Errorf("algorithms: bins must be >= 1")
	}
	levels := levelsParam(req)

	features, err := buildTreeFeatures(sess, req, levels, bins)
	if err != nil {
		return nil, err
	}
	tree := &Tree{Features: features, Classes: classes, YVar: req.Y[0]}
	tree.Nodes = append(tree.Nodes, TreeNode{ID: 0})

	vars := append([]string{req.Y[0]}, req.X...)
	frontier := []int{0}
	for len(frontier) > 0 {
		agg, err := sess.Aggregate(federation.LocalRunSpec{
			Func:   "tree_hist_local",
			Vars:   vars,
			Filter: req.Filter,
			Kwargs: treeArgs{Tree: tree, Frontier: frontier},
		})
		if err != nil {
			return nil, err
		}
		hist, err := agg.Matrix("hist")
		if err != nil {
			return nil, err
		}
		totals, err := agg.Matrix("totals")
		if err != nil {
			return nil, err
		}

		rowsPerNode := 0
		for _, f := range features {
			rowsPerNode += f.Bins()
		}
		var next []int
		for fi, nodeID := range frontier {
			node := &tree.Nodes[nodeID]
			tot := totals[fi]
			setLeafPayload(node, tot, classification)
			if node.Depth >= maxDepth || node.N < minSplit || isPure(tot, classification) {
				node.Leaf = true
				continue
			}
			split := bestSplit(features, hist[fi*rowsPerNode:(fi+1)*rowsPerNode], tot, classification, minSplit)
			if split == nil {
				node.Leaf = true
				continue
			}
			left := TreeNode{ID: len(tree.Nodes), Depth: node.Depth + 1}
			right := TreeNode{ID: len(tree.Nodes) + 1, Depth: node.Depth + 1}
			// append may reallocate the node slice — re-address the node
			// afterwards instead of writing through the stale pointer.
			tree.Nodes = append(tree.Nodes, left, right)
			node = &tree.Nodes[nodeID]
			node.Var = split.feature.Name
			node.Threshold = split.threshold
			node.Level = split.level
			node.Left = left.ID
			node.Right = right.ID
			next = append(next, left.ID, right.ID)
		}
		frontier = next
	}

	// Final evaluation round.
	result := Result{"tree": tree, "n_nodes": len(tree.Nodes)}
	if classification {
		agg, err := sess.Aggregate(federation.LocalRunSpec{
			Func: "tree_eval_local", Vars: vars, Filter: req.Filter,
			Kwargs: treeArgs{Tree: tree},
		})
		if err != nil {
			return nil, err
		}
		conf, _ := agg.Matrix("conf")
		var n, correct float64
		for i := range conf {
			for j := range conf[i] {
				n += conf[i][j]
				if i == j {
					correct += conf[i][j]
				}
			}
		}
		result["confusion"] = conf
		if n > 0 {
			result["accuracy"] = correct / n
		}
	} else {
		agg, err := sess.Aggregate(federation.LocalRunSpec{
			Func: "tree_eval_local", Vars: vars, Filter: req.Filter,
			Kwargs: treeArgs{Tree: tree},
		})
		if err != nil {
			return nil, err
		}
		m, _ := agg.Floats("metrics")
		if m[0] > 0 {
			result["mse"] = m[1] / m[0]
			result["mae"] = m[2] / m[0]
		}
	}
	return result, nil
}

// buildTreeFeatures assembles the feature specs: nominal features carry
// their declared levels, numeric ones get equal-width bins over the global
// min/max (one extra federated round).
func buildTreeFeatures(sess *federation.Session, req Request, levels map[string][]string, bins int) ([]TreeFeature, error) {
	var numeric []string
	for _, v := range req.X {
		if _, nominal := levels[v]; !nominal {
			numeric = append(numeric, v)
		}
	}
	var mins, maxs []float64
	if len(numeric) > 0 {
		summary, err := sess.Aggregate(federation.LocalRunSpec{
			Func:   "desc_summary",
			Vars:   numeric,
			Filter: req.Filter,
			Kwargs: varsArgs{Vars: numeric},
		})
		if err != nil {
			return nil, err
		}
		mins, _ = summary.Floats("mins")
		maxs, _ = summary.Floats("maxs")
	}
	var features []TreeFeature
	ni := 0
	for _, v := range req.X {
		if lv, nominal := levels[v]; nominal {
			features = append(features, TreeFeature{Name: v, Levels: lv})
			continue
		}
		features = append(features, TreeFeature{Name: v, Edges: featureBinEdges(mins[ni], maxs[ni], bins)})
		ni++
	}
	return features, nil
}

func setLeafPayload(node *TreeNode, tot []float64, classification bool) {
	if classification {
		node.ClassDist = append([]float64(nil), tot...)
		node.Prediction = float64(argmaxF(tot))
		var n float64
		for _, c := range tot {
			n += c
		}
		node.N = n
		return
	}
	node.N = tot[0]
	if tot[0] > 0 {
		node.Prediction = tot[1] / tot[0]
	}
}

func isPure(tot []float64, classification bool) bool {
	if classification {
		nonzero := 0
		for _, c := range tot {
			if c > 0 {
				nonzero++
			}
		}
		return nonzero <= 1
	}
	n, s, s2 := tot[0], tot[1], tot[2]
	if n < 2 {
		return true
	}
	return (s2-s*s/n)/n < 1e-12
}

// candidateSplit is the winner of the split search for one node.
type candidateSplit struct {
	feature   TreeFeature
	threshold float64
	level     string
	gain      float64
}

// bestSplit scans all features' histograms for the impurity-optimal binary
// split. hist rows are laid out feature-major then bin.
func bestSplit(features []TreeFeature, hist [][]float64, tot []float64, classification bool, minChild float64) *candidateSplit {
	var parentImp, n float64
	if classification {
		parentImp, n = gini(tot)
	} else {
		n = tot[0]
		if n > 0 {
			parentImp = (tot[2] - tot[1]*tot[1]/n) / n
		}
	}
	if n == 0 {
		return nil
	}
	var best *candidateSplit
	off := 0
	width := len(tot)
	for _, f := range features {
		bins := f.Bins()
		rows := hist[off : off+bins]
		off += bins
		if len(f.Levels) > 0 {
			// One-vs-rest on each level.
			for li, lv := range f.Levels {
				left := rows[li]
				right := subtract(tot, left, width)
				if g, ok := splitGain(parentImp, n, left, right, classification, minChild); ok {
					if best == nil || g > best.gain {
						best = &candidateSplit{feature: f, level: lv, gain: g}
					}
				}
			}
			continue
		}
		// Numeric: prefix-sum sweep across bin boundaries.
		left := make([]float64, width)
		for b := 0; b < bins-1; b++ {
			for w := 0; w < width; w++ {
				left[w] += rows[b][w]
			}
			right := subtract(tot, left, width)
			if g, ok := splitGain(parentImp, n, left, right, classification, minChild); ok {
				if best == nil || g > best.gain {
					best = &candidateSplit{feature: f, threshold: f.Edges[b+1], gain: g}
				}
			}
		}
	}
	if best != nil && best.gain <= 1e-12 {
		return nil
	}
	return best
}

func subtract(tot, left []float64, width int) []float64 {
	out := make([]float64, width)
	for i := 0; i < width; i++ {
		out[i] = tot[i] - left[i]
		if out[i] < 0 {
			out[i] = 0
		}
	}
	return out
}

// splitGain computes the weighted impurity decrease of a binary split;
// ok=false when a child is under the minimum size.
func splitGain(parentImp, n float64, left, right []float64, classification bool, minChild float64) (float64, bool) {
	var nl, nr, il, ir float64
	if classification {
		il, nl = gini(left)
		ir, nr = gini(right)
	} else {
		nl, nr = left[0], right[0]
		if nl > 0 {
			il = (left[2] - left[1]*left[1]/nl) / nl
		}
		if nr > 0 {
			ir = (right[2] - right[1]*right[1]/nr) / nr
		}
	}
	minSide := math.Max(1, minChild/4)
	if nl < minSide || nr < minSide {
		return 0, false
	}
	return parentImp - (nl*il+nr*ir)/n, true
}
