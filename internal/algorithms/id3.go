package algorithms

import (
	"fmt"

	"mip/internal/federation"
)

// ID3: the classic categorical decision tree. Splits are multiway (one
// child per level of the chosen feature), chosen by information gain, and a
// feature is used at most once along any path. The same federated
// histogram round as CART supplies per-node per-feature per-level class
// counts.

func init() {
	Register(&ID3{})
}

// ID3 implements the ID3 decision-tree algorithm.
type ID3 struct{}

// Spec implements Algorithm.
func (*ID3) Spec() Spec {
	return Spec{
		Name:  "id3",
		Label: "ID3",
		Desc:  "Information-gain decision tree over nominal features with multiway splits, grown from federated level histograms.",
		Y:     VarSpec{Min: 1, Max: 1, Types: []string{"nominal"}},
		X:     VarSpec{Min: 1, Types: []string{"nominal"}},
		Parameters: []ParamSpec{
			{Name: "classes", Label: "Outcome classes", Type: "string"},
			{Name: "levels", Label: "Feature levels", Type: "string"},
			{Name: "max_depth", Label: "Maximum depth", Type: "int", Default: 4},
			{Name: "min_split", Label: "Minimum rows to split", Type: "int", Default: 20},
		},
	}
}

// id3NodeMeta tracks which features remain usable on each node's path.
type id3NodeMeta struct {
	used map[string]bool
}

// Run implements Algorithm.
func (a *ID3) Run(sess *federation.Session, req Request) (Result, error) {
	if err := requireVars(a.Spec(), req); err != nil {
		return nil, err
	}
	classes := req.ParamStrings("classes")
	if len(classes) < 2 {
		return nil, fmt.Errorf("algorithms: id3 needs parameter classes")
	}
	levels := levelsParam(req)
	for _, v := range req.X {
		if len(levels[v]) == 0 {
			return nil, fmt.Errorf("algorithms: id3 needs levels for feature %q", v)
		}
	}
	maxDepth := req.ParamInt("max_depth", 4)
	minSplit := float64(req.ParamInt("min_split", 20))

	var features []TreeFeature
	for _, v := range req.X {
		features = append(features, TreeFeature{Name: v, Levels: levels[v]})
	}
	tree := &Tree{Features: features, Classes: classes, YVar: req.Y[0]}
	tree.Nodes = append(tree.Nodes, TreeNode{ID: 0})
	meta := map[int]*id3NodeMeta{0: {used: map[string]bool{}}}

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
			tot := totals[fi]
			setLeafPayload(&tree.Nodes[nodeID], tot, true)
			node := &tree.Nodes[nodeID]
			nm := meta[nodeID]
			if node.Depth >= maxDepth || node.N < minSplit || isPure(tot, true) || len(nm.used) == len(features) {
				node.Leaf = true
				continue
			}
			// Information gain per unused feature.
			parentH, n := entropy(tot)
			bestGain, bestF := 0.0, -1
			nodeHist := hist[fi*rowsPerNode : (fi+1)*rowsPerNode]
			off := 0
			for fIdx, f := range features {
				bins := f.Bins()
				rows := nodeHist[off : off+bins]
				off += bins
				if nm.used[f.Name] {
					continue
				}
				var condH float64
				for _, counts := range rows {
					h, nl := entropy(counts)
					if nl > 0 {
						condH += nl / n * h
					}
				}
				if g := parentH - condH; g > bestGain+1e-12 {
					bestGain, bestF = g, fIdx
				}
			}
			if bestF < 0 {
				node.Leaf = true
				continue
			}
			f := features[bestF]
			children := make([]int, len(f.Levels))
			for li := range f.Levels {
				child := TreeNode{ID: len(tree.Nodes), Depth: node.Depth + 1}
				tree.Nodes = append(tree.Nodes, child)
				node = &tree.Nodes[nodeID] // re-address after append
				children[li] = child.ID
				used := map[string]bool{f.Name: true}
				for k := range nm.used {
					used[k] = true
				}
				meta[child.ID] = &id3NodeMeta{used: used}
				next = append(next, child.ID)
			}
			node.Var = f.Name
			node.Children = children
		}
		frontier = next
	}

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
	result := Result{"tree": tree, "n_nodes": len(tree.Nodes), "confusion": conf, "classes": classes}
	if n > 0 {
		result["accuracy"] = correct / n
	}
	return result, nil
}
