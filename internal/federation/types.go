// Package federation implements MIP's federated execution core: the Master
// node that orchestrates algorithm flows and tracks dataset availability,
// the Worker nodes that run local computation steps inside their data
// engine (wrapped as SQL UDFs by the UDF generator), and the two
// aggregation paths — plain transfers (the remote/merge-table path for
// non-sensitive deployments) and secure aggregation through the SMPC
// cluster.
//
// The programming model mirrors the paper's Figure 2: an algorithm flow
// calls Session.Aggregate to execute a named local step on every worker
// holding the requested datasets and combine each key of the returned
// transfers by the op its tensor carries (plain or SMPC), then does its
// global step as Go code between rounds, iterating until done.
// Session.LocalRun returns the raw per-worker transfers instead.
package federation

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"

	"mip/internal/smpc"
)

// Kwargs are a step's keyword arguments: one JSON document, marshalled once
// per round by the master and shipped unchanged by every transport. The step
// decodes it into its own argument struct.
type Kwargs struct{ json.RawMessage }

// Decode unmarshals the arguments into v, a pointer to the step's argument
// struct. Absent arguments leave v unchanged.
func (k Kwargs) Decode(v any) error {
	if len(k.RawMessage) == 0 {
		return nil
	}
	if err := json.Unmarshal(k.RawMessage, v); err != nil {
		return fmt.Errorf("federation: decoding kwargs: %w", err)
	}
	return nil
}

// Transfer is the result a step emits: named tensors. Only aggregated
// quantities may leave a worker; the worker enforces disclosure control
// before shipping.
type Transfer map[string]Tensor

// Tensor is one transfer entry: a row-major float array, its shape, and the
// op that combines it across workers. A scalar has no shape, a vector's
// shape is [n] and a matrix's [rows, cols]. The zero Op is a sum.
type Tensor struct {
	Shape []int     `json:"shape,omitempty"`
	Data  []float64 `json:"data"`
	Op    smpc.Op   `json:"op,omitempty"`
}

// WithOp tags the tensor with the op that combines it across workers:
// smpc.OpMin or smpc.OpMax element-wise, or smpc.OpUnion for a vector whose
// workers' values merge into their sorted distinct set.
func (t Tensor) WithOp(op smpc.Op) Tensor {
	t.Op = op
	return t
}

// Scalar is a one-value tensor.
func Scalar(x float64) Tensor { return Tensor{Data: []float64{x}} }

// Vector is a one-dimensional tensor over xs.
func Vector(xs []float64) Tensor { return Tensor{Shape: []int{len(xs)}, Data: xs} }

// Matrix is a rows × cols tensor over row-major data.
func Matrix(rows, cols int, data []float64) Tensor {
	return Tensor{Shape: []int{rows, cols}, Data: data}
}

// size is the number of values the shape declares.
func (t Tensor) size() int {
	n := 1
	for _, d := range t.Shape {
		n *= d
	}
	return n
}

// get returns the entry under key if it has dims dimensions and its data
// fills its shape.
func (t Transfer) get(key string, dims int) (Tensor, error) {
	v, ok := t[key]
	if !ok {
		return Tensor{}, fmt.Errorf("federation: transfer missing %q", key)
	}
	if len(v.Shape) != dims || len(v.Data) != v.size() {
		return Tensor{}, fmt.Errorf("federation: transfer %q has shape %v and %d values, not a %d-dimensional tensor", key, v.Shape, len(v.Data), dims)
	}
	return v, nil
}

// Float returns a scalar entry.
func (t Transfer) Float(key string) (float64, error) {
	v, err := t.get(key, 0)
	if err != nil {
		return 0, err
	}
	return v.Data[0], nil
}

// Floats returns a vector entry.
func (t Transfer) Floats(key string) ([]float64, error) {
	v, err := t.get(key, 1)
	return v.Data, err
}

// Matrix returns a matrix entry as row views over its data.
func (t Transfer) Matrix(key string) ([][]float64, error) {
	v, err := t.get(key, 2)
	if err != nil {
		return nil, err
	}
	rows, cols := v.Shape[0], v.Shape[1]
	out := make([][]float64, rows)
	for i := range out {
		out[i] = v.Data[i*cols : (i+1)*cols : (i+1)*cols]
	}
	return out, nil
}

// aggOps are the ops a transfer key may carry, in the order a secure
// round aggregates their groups.
var aggOps = []smpc.Op{smpc.OpSum, smpc.OpMin, smpc.OpMax, smpc.OpUnion}

// groupKeys checks that every transfer carries the same keys, each tagged
// with one supported op by every worker and, except a union's (whose length
// is each worker's own), with one shape: the precondition of combining them
// plain or secure. It returns the keys grouped by op and sorted, the order a
// worker concatenates a group's data in and the master slices it back by.
func groupKeys(transfers []Transfer) (map[smpc.Op][]string, error) {
	if len(transfers) == 0 {
		return nil, fmt.Errorf("federation: no transfers to aggregate")
	}
	first := transfers[0]
	for i, t := range transfers {
		for k, v := range t {
			f, ok := first[k]
			switch {
			case !ok:
				return nil, fmt.Errorf("federation: transfer 0 missing %q", k)
			case v.Op != f.Op:
				return nil, fmt.Errorf("federation: workers tagged %q with different ops: %v and %v", k, f.Op, v.Op)
			case v.Op == smpc.OpUnion && len(v.Shape) != 1:
				return nil, fmt.Errorf("federation: union %q has shape %v, not a vector", k, v.Shape)
			case v.Op != smpc.OpUnion && !slices.Equal(v.Shape, f.Shape):
				return nil, fmt.Errorf("federation: workers reported inconsistent shapes for %q: %v and %v", k, f.Shape, v.Shape)
			}
		}
		for k := range first {
			if _, ok := t[k]; !ok {
				return nil, fmt.Errorf("federation: transfer %d missing %q", i, k)
			}
		}
	}
	groups := map[smpc.Op][]string{}
	for k, v := range first {
		if !slices.Contains(aggOps, v.Op) {
			return nil, fmt.Errorf("federation: transfer %q: unsupported aggregation %v", k, v.Op)
		}
		groups[v.Op] = append(groups[v.Op], k)
	}
	if len(groups[smpc.OpUnion]) > 1 {
		return nil, fmt.Errorf("federation: a transfer carries at most one union key, not %v", groups[smpc.OpUnion])
	}
	for _, keys := range groups {
		sort.Strings(keys)
	}
	return groups, nil
}

// aggregateFold combines plain transfers key by key, each by its op: sum,
// min or max element-wise, or a union's sorted distinct values.
func aggregateFold(transfers []Transfer) (Transfer, error) {
	groups, err := groupKeys(transfers)
	if err != nil {
		return nil, err
	}
	out := make(Transfer, len(transfers[0]))
	for op, keys := range groups {
		for _, k := range keys {
			var acc []float64
			for i, t := range transfers {
				v := t[k]
				if len(v.Data) != v.size() {
					return nil, fmt.Errorf("federation: transfer %d: %q has %d values for shape %v", i, k, len(v.Data), v.Shape)
				}
				xs := v.Data
				switch {
				case i == 0 || op == smpc.OpUnion:
					acc = append(acc, xs...)
				case op == smpc.OpSum:
					for j, x := range xs {
						acc[j] += x
					}
				case op == smpc.OpMin:
					for j, x := range xs {
						if x < acc[j] {
							acc[j] = x
						}
					}
				default:
					for j, x := range xs {
						if x > acc[j] {
							acc[j] = x
						}
					}
				}
			}
			if op == smpc.OpUnion {
				slices.Sort(acc)
				acc = slices.Compact(acc)
				out[k] = Vector(acc).WithOp(op)
				continue
			}
			out[k] = Tensor{Shape: transfers[0][k].Shape, Data: acc, Op: op}
		}
	}
	return out, nil
}

// openedTransfer slices an opened secure group by its keys' shapes, in the
// sorted order the workers concatenated their data, into out.
func openedTransfer(flat []float64, layout Transfer, keys []string, out Transfer) error {
	for _, k := range keys {
		shape := layout[k].Shape
		n := Tensor{Shape: shape}.size()
		if n < 0 || n > len(flat) {
			return fmt.Errorf("federation: opened secure vector does not fit shape %v of %q", shape, k)
		}
		out[k] = Tensor{Shape: shape, Data: flat[:n:n], Op: layout[k].Op}
		flat = flat[n:]
	}
	if len(flat) != 0 {
		return fmt.Errorf("federation: opened secure vector has %d values beyond the workers' shapes", len(flat))
	}
	return nil
}
