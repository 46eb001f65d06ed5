package algorithms

import (
	"fmt"
	"math"

	"mip/internal/engine"
	"mip/internal/federation"
)

// Shared machinery for the federated decision trees (CART and ID3). Trees
// are grown breadth-first: each round, every worker routes its rows down
// the current partial tree and returns, for every frontier node × feature ×
// bin/level, the class counts (classification) or the (n, Σy, Σy²) moments
// (regression). The master picks the best split per frontier node from the
// aggregated histograms — rows never leave the workers, and the per-round
// transfer has a fixed shape, so tree growing runs over SMPC unchanged.

// TreeFeature describes one splitting feature: numeric features carry
// global bin edges (len = bins+1), categorical ones their levels.
type TreeFeature struct {
	Name   string    `json:"name"`
	Edges  []float64 `json:"edges,omitempty"`
	Levels []string  `json:"levels,omitempty"`
}

// Bins returns the number of histogram cells for the feature.
func (f TreeFeature) Bins() int {
	if len(f.Levels) > 0 {
		return len(f.Levels)
	}
	return len(f.Edges) - 1
}

// binOf maps a numeric value into its bin.
func (f TreeFeature) binOf(x float64) int {
	b := len(f.Edges) - 2
	for i := 1; i < len(f.Edges)-1; i++ {
		if x < f.Edges[i] {
			b = i - 1
			break
		}
	}
	if b < 0 {
		b = 0
	}
	return b
}

// TreeNode is one node of a partial or final tree.
type TreeNode struct {
	ID int `json:"id"`
	// Internal-node split: numeric (Var, Threshold) goes left when
	// x <= Threshold; categorical CART (Var, Level) goes left when
	// x == Level; ID3 multiway splits use Children keyed by level index.
	Var       string  `json:"var,omitempty"`
	Threshold float64 `json:"threshold,omitempty"`
	Level     string  `json:"level,omitempty"`
	Left      int     `json:"left,omitempty"`
	Right     int     `json:"right,omitempty"`
	Children  []int   `json:"children,omitempty"` // ID3 multiway (per level)
	// Leaf payload.
	Leaf       bool      `json:"leaf"`
	Prediction float64   `json:"prediction"` // class index or mean
	ClassDist  []float64 `json:"class_dist,omitempty"`
	N          float64   `json:"n"`
	Depth      int       `json:"depth"`
}

// Tree is the grown model.
type Tree struct {
	Nodes    []TreeNode    `json:"nodes"`
	Features []TreeFeature `json:"features"`
	Classes  []string      `json:"classes,omitempty"` // empty for regression
	YVar     string        `json:"y"`
}

// routeRow walks a row down the tree; it returns the reached node id (a
// frontier node id or a leaf).
func (t *Tree) routeRow(getNum func(name string) float64, getStr func(name string) string) int {
	id := 0
	for {
		n := &t.Nodes[id]
		if n.Leaf || (n.Var == "") {
			return id
		}
		if len(n.Children) > 0 { // ID3 multiway
			lv := getStr(n.Var)
			next := -1
			for _, f := range t.Features {
				if f.Name != n.Var {
					continue
				}
				for li, l := range f.Levels {
					if l == lv {
						next = n.Children[li]
						break
					}
				}
			}
			if next < 0 {
				return id // unseen level: stop here (treated as leaf)
			}
			id = next
			continue
		}
		if n.Level != "" { // categorical binary split
			if getStr(n.Var) == n.Level {
				id = n.Left
			} else {
				id = n.Right
			}
			continue
		}
		if getNum(n.Var) <= n.Threshold {
			id = n.Left
		} else {
			id = n.Right
		}
	}
}

func init() {
	federation.RegisterLocal("tree_hist_local", treeHistLocal)
	federation.RegisterLocal("tree_eval_local", treeEvalLocal)
}

// treeArgs are the kwargs of the tree local steps: the partial (or final)
// tree and, for the histogram round, the frontier node ids.
type treeArgs struct {
	Tree     *Tree `json:"tree"`
	Frontier []int `json:"frontier,omitempty"`
}

func parseTreeArgs(kwargs federation.Kwargs) (*treeArgs, error) {
	a := &treeArgs{}
	if err := kwargs.Decode(a); err != nil {
		return nil, err
	}
	if a.Tree == nil {
		return nil, fmt.Errorf("algorithms: missing tree kwarg")
	}
	return a, nil
}

// columnAccessors builds fast per-row getters for the tree's features.
func columnAccessors(t *Tree, data *engine.Table) (func(r int, name string) float64, func(r int, name string) string, error) {
	numCols := map[string][]float64{}
	strCols := map[string][]string{}
	for _, f := range t.Features {
		if len(f.Levels) > 0 {
			c, err := stringCol(data, f.Name)
			if err != nil {
				return nil, nil, err
			}
			strCols[f.Name] = c
		} else {
			c, err := floatCol(data, f.Name)
			if err != nil {
				return nil, nil, err
			}
			numCols[f.Name] = c
		}
	}
	getNum := func(r int, name string) float64 {
		if c, ok := numCols[name]; ok {
			return c[r]
		}
		return math.NaN()
	}
	getStr := func(r int, name string) string {
		if c, ok := strCols[name]; ok {
			return c[r]
		}
		return ""
	}
	return getNum, getStr, nil
}

// treeHistLocal aggregates split histograms for the frontier nodes.
// Output shapes: hist is (Σ_{frontier,feature} bins) × width where width is
// len(classes) for classification or 3 for regression; totals is
// len(frontier) × width.
func treeHistLocal(wctx *federation.WorkerCtx, data *engine.Table, kwargs federation.Kwargs) (federation.Transfer, error) {
	a, err := parseTreeArgs(kwargs)
	if err != nil {
		return nil, err
	}
	t := a.Tree
	getNum, getStr, err := columnAccessors(t, data)
	if err != nil {
		return nil, err
	}
	classification := len(t.Classes) > 0
	width := 3
	classIdx := map[string]int{}
	if classification {
		width = len(t.Classes)
		for i, c := range t.Classes {
			classIdx[c] = i
		}
	}
	var ys []float64
	var ysC []string
	if classification {
		if ysC, err = stringCol(data, t.YVar); err != nil {
			return nil, err
		}
	} else {
		if ys, err = floatCol(data, t.YVar); err != nil {
			return nil, err
		}
	}

	frontierPos := map[int]int{}
	for i, id := range a.Frontier {
		frontierPos[id] = i
	}
	rowsPerNode := 0
	for _, f := range t.Features {
		rowsPerNode += f.Bins()
	}
	histRows := len(a.Frontier) * rowsPerNode
	hist := make([]float64, histRows*width)
	totals := make([]float64, len(a.Frontier)*width)

	n := data.NumRows()
	for r := 0; r < n; r++ {
		nodeID := t.routeRow(
			func(name string) float64 { return getNum(r, name) },
			func(name string) string { return getStr(r, name) },
		)
		fi, onFrontier := frontierPos[nodeID]
		if !onFrontier {
			continue
		}
		// Accumulate this row into every feature's histogram for the node.
		var cls int
		var yv float64
		tot := totals[fi*width : (fi+1)*width]
		if classification {
			var ok bool
			cls, ok = classIdx[ysC[r]]
			if !ok {
				continue
			}
			tot[cls]++
		} else {
			yv = ys[r]
			tot[0]++
			tot[1] += yv
			tot[2] += yv * yv
		}
		base := fi * rowsPerNode
		off := 0
		for _, f := range t.Features {
			var b int
			if len(f.Levels) > 0 {
				b = -1
				lv := getStr(r, f.Name)
				for li, l := range f.Levels {
					if l == lv {
						b = li
						break
					}
				}
				if b < 0 {
					off += f.Bins()
					continue
				}
			} else {
				b = f.binOf(getNum(r, f.Name))
			}
			row := hist[(base+off+b)*width : (base+off+b+1)*width]
			if classification {
				row[cls]++
			} else {
				row[0]++
				row[1] += yv
				row[2] += yv * yv
			}
			off += f.Bins()
		}
	}
	return federation.Transfer{"hist": federation.Matrix(histRows, width, hist),
		"totals": federation.Matrix(len(a.Frontier), width, totals)}, nil
}

// treeEvalLocal scores a finished tree: classification returns the k×k
// confusion matrix, regression the (n, sse, sae) triple.
func treeEvalLocal(wctx *federation.WorkerCtx, data *engine.Table, kwargs federation.Kwargs) (federation.Transfer, error) {
	a, err := parseTreeArgs(kwargs)
	if err != nil {
		return nil, err
	}
	t := a.Tree
	getNum, getStr, err := columnAccessors(t, data)
	if err != nil {
		return nil, err
	}
	if len(t.Classes) > 0 {
		ysC, err := stringCol(data, t.YVar)
		if err != nil {
			return nil, err
		}
		classIdx := map[string]int{}
		for i, c := range t.Classes {
			classIdx[c] = i
		}
		k := len(t.Classes)
		conf := make([]float64, k*k)
		for r := 0; r < data.NumRows(); r++ {
			truth, ok := classIdx[ysC[r]]
			if !ok {
				continue
			}
			id := t.routeRow(
				func(name string) float64 { return getNum(r, name) },
				func(name string) string { return getStr(r, name) },
			)
			conf[truth*k+int(t.Nodes[id].Prediction)]++
		}
		return federation.Transfer{"conf": federation.Matrix(k, k, conf)}, nil
	}
	ys, err := floatCol(data, t.YVar)
	if err != nil {
		return nil, err
	}
	var n, sse, sae float64
	for r := 0; r < data.NumRows(); r++ {
		id := t.routeRow(
			func(name string) float64 { return getNum(r, name) },
			func(name string) string { return getStr(r, name) },
		)
		d := ys[r] - t.Nodes[id].Prediction
		n++
		sse += d * d
		sae += math.Abs(d)
	}
	return federation.Transfer{"metrics": federation.Vector([]float64{n, sse, sae})}, nil
}

// impurity helpers

// gini computes the Gini impurity of class counts and their total.
func gini(counts []float64) (imp, total float64) {
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0, 0
	}
	imp = 1
	for _, c := range counts {
		p := c / total
		imp -= p * p
	}
	return imp, total
}

// entropy computes the Shannon entropy (bits) of class counts.
func entropy(counts []float64) (h, total float64) {
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0, 0
	}
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := c / total
		h -= p * math.Log2(p)
	}
	return h, total
}

// argmaxF returns the index of the largest element.
func argmaxF(xs []float64) int {
	best, bi := math.Inf(-1), 0
	for i, x := range xs {
		if x > best {
			best, bi = x, i
		}
	}
	return bi
}

// featureBinEdges builds equal-width bin edges over a global [lo, hi].
func featureBinEdges(lo, hi float64, bins int) []float64 {
	if hi <= lo {
		hi = lo + 1
	}
	edges := make([]float64, bins+1)
	for i := range edges {
		edges[i] = lo + (hi-lo)*float64(i)/float64(bins)
	}
	return edges
}
