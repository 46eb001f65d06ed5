// Package federation implements MIP's federated execution core: the Master
// node that orchestrates algorithm flows and tracks dataset availability,
// the Worker nodes that run local computation steps inside their data
// engine (wrapped as SQL UDFs by the UDF generator), and the two
// aggregation paths — plain transfers (the remote/merge-table path for
// non-sensitive deployments) and secure aggregation through the SMPC
// cluster.
//
// The programming model mirrors the paper's Figure 2: an algorithm flow
// calls Session.LocalRun to execute a named local step on every worker
// holding the requested datasets, aggregates the returned transfers (plain
// or SMPC), and does its global step as Go code between rounds, iterating
// until done.
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

// Tensor is one transfer entry: a row-major float array and its shape. A
// scalar has no shape, a vector's shape is [n] and a matrix's [rows, cols].
type Tensor struct {
	Shape []int     `json:"shape,omitempty"`
	Data  []float64 `json:"data"`
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

// sortedKeys is the order a step's secure keys travel in: the worker
// concatenates their data in it and the master slices the opened vector by
// it.
func sortedKeys(keys []string) []string {
	out := append([]string(nil), keys...)
	sort.Strings(out)
	return out
}

// sameShape verifies that every transfer carries each key with one shape,
// the precondition of folding them element-wise, plain or secure.
func sameShape(transfers []Transfer, keys []string) error {
	for _, k := range keys {
		first, ok := transfers[0][k]
		for i, t := range transfers {
			v, has := t[k]
			if !ok || !has {
				return fmt.Errorf("federation: transfer %d missing %q", i, k)
			}
			if !slices.Equal(v.Shape, first.Shape) {
				return fmt.Errorf("federation: workers reported inconsistent shapes for %q: %v and %v", k, first.Shape, v.Shape)
			}
		}
	}
	return nil
}

// aggregateFold combines plain transfers element-wise with the given op,
// key by key, once their shapes agree.
func aggregateFold(transfers []Transfer, op smpc.Op, keys []string) (Transfer, error) {
	if len(transfers) == 0 {
		return nil, fmt.Errorf("federation: no transfers to aggregate")
	}
	if op != smpc.OpSum && op != smpc.OpMin && op != smpc.OpMax {
		return nil, fmt.Errorf("federation: unsupported plain aggregation %v", op)
	}
	if err := sameShape(transfers, keys); err != nil {
		return nil, err
	}
	out := make(Transfer, len(keys))
	for _, k := range keys {
		shape := transfers[0][k].Shape
		size := Tensor{Shape: shape}.size()
		var acc []float64
		for i, t := range transfers {
			xs := t[k].Data
			if len(xs) != size {
				return nil, fmt.Errorf("federation: transfer %d: %q has %d values for shape %v", i, k, len(xs), shape)
			}
			switch {
			case i == 0:
				acc = append([]float64(nil), xs...)
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
		out[k] = Tensor{Shape: shape, Data: acc}
	}
	return out, nil
}

// openedTransfer slices the opened secure vector by the keys' shapes, in
// the sorted order the workers concatenated their data.
func openedTransfer(flat []float64, layout Transfer, keys []string) (Transfer, error) {
	out := make(Transfer, len(keys))
	for _, k := range sortedKeys(keys) {
		shape := layout[k].Shape
		n := Tensor{Shape: shape}.size()
		if n < 0 || n > len(flat) {
			return nil, fmt.Errorf("federation: opened secure vector does not fit shape %v of %q", shape, k)
		}
		out[k] = Tensor{Shape: shape, Data: flat[:n:n]}
		flat = flat[n:]
	}
	if len(flat) != 0 {
		return nil, fmt.Errorf("federation: opened secure vector has %d values beyond the workers' shapes", len(flat))
	}
	return out, nil
}
