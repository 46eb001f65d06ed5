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
// holding the requested datasets, then aggregates the returned transfers
// (plain or SMPC) and optionally runs global steps, iterating until done.
package federation

import (
	"fmt"
	"sort"
)

// Kwargs are the keyword arguments of a local/global step (JSON-able).
type Kwargs map[string]any

// Transfer is the result dict a step emits. Only aggregated quantities may
// leave a worker; the worker enforces disclosure control before shipping.
type Transfer map[string]any

// Float returns a numeric entry (handles float64 and int).
func (t Transfer) Float(key string) (float64, error) {
	v, ok := t[key]
	if !ok {
		return 0, fmt.Errorf("federation: transfer missing %q", key)
	}
	switch x := v.(type) {
	case float64:
		return x, nil
	case int:
		return float64(x), nil
	case int64:
		return float64(x), nil
	}
	return 0, fmt.Errorf("federation: transfer %q is %T, not numeric", key, v)
}

// Floats returns a vector entry, accepting []float64 or []any (the shape
// JSON round-trips produce).
func (t Transfer) Floats(key string) ([]float64, error) {
	v, ok := t[key]
	if !ok {
		return nil, fmt.Errorf("federation: transfer missing %q", key)
	}
	switch x := v.(type) {
	case []float64:
		return x, nil
	case []any:
		out := make([]float64, len(x))
		for i, e := range x {
			f, ok := e.(float64)
			if !ok {
				return nil, fmt.Errorf("federation: transfer %q[%d] is %T", key, i, e)
			}
			out[i] = f
		}
		return out, nil
	}
	return nil, fmt.Errorf("federation: transfer %q is %T, not a vector", key, v)
}

// Matrix returns a matrix entry ([][]float64, or the JSON equivalent).
func (t Transfer) Matrix(key string) ([][]float64, error) {
	v, ok := t[key]
	if !ok {
		return nil, fmt.Errorf("federation: transfer missing %q", key)
	}
	switch x := v.(type) {
	case [][]float64:
		return x, nil
	case []any:
		out := make([][]float64, len(x))
		for i, r := range x {
			row, ok := r.([]any)
			if !ok {
				if fr, ok2 := r.([]float64); ok2 {
					out[i] = fr
					continue
				}
				return nil, fmt.Errorf("federation: transfer %q row %d is %T", key, i, r)
			}
			out[i] = make([]float64, len(row))
			for j, e := range row {
				f, ok := e.(float64)
				if !ok {
					return nil, fmt.Errorf("federation: transfer %q[%d][%d] is %T", key, i, j, e)
				}
				out[i][j] = f
			}
		}
		return out, nil
	}
	return nil, fmt.Errorf("federation: transfer %q is %T, not a matrix", key, v)
}

// flattenNumeric lowers a transfer's numeric entries (scalar, vector,
// matrix) for the named keys into one flat vector plus a shape directory,
// so the whole payload can be secret-shared as a single SMPC job. Keys are
// processed in sorted order for determinism across workers.
func flattenNumeric(t Transfer, keys []string) (flat []float64, shapes map[string][]int, err error) {
	shapes = make(map[string][]int, len(keys))
	sorted := append([]string(nil), keys...)
	sort.Strings(sorted)
	size := 0
	for _, k := range sorted {
		size += numericLen(t[k])
	}
	flat = make([]float64, 0, size)
	for _, k := range sorted {
		v, ok := t[k]
		if !ok {
			return nil, nil, fmt.Errorf("federation: secure key %q missing from transfer", k)
		}
		switch x := v.(type) {
		case float64:
			flat = append(flat, x)
			shapes[k] = []int{}
		case int:
			flat = append(flat, float64(x))
			shapes[k] = []int{}
		case []float64:
			flat = append(flat, x...)
			shapes[k] = []int{len(x)}
		case [][]float64:
			rows := len(x)
			cols := 0
			if rows > 0 {
				cols = len(x[0])
			}
			for _, r := range x {
				if len(r) != cols {
					return nil, nil, fmt.Errorf("federation: ragged matrix in secure key %q", k)
				}
				flat = append(flat, r...)
			}
			shapes[k] = []int{rows, cols}
		case []any:
			// JSON round trips deliver []any; recover vectors and matrices.
			if len(x) == 0 {
				shapes[k] = []int{0}
				continue
			}
			if _, isRow := x[0].([]any); isRow {
				rows := len(x)
				cols := -1
				for _, re := range x {
					row, ok := re.([]any)
					if !ok {
						return nil, nil, fmt.Errorf("federation: mixed matrix in secure key %q", k)
					}
					if cols == -1 {
						cols = len(row)
					} else if len(row) != cols {
						return nil, nil, fmt.Errorf("federation: ragged matrix in secure key %q", k)
					}
					for _, e := range row {
						f, ok := e.(float64)
						if !ok {
							return nil, nil, fmt.Errorf("federation: non-numeric matrix entry in %q", k)
						}
						flat = append(flat, f)
					}
				}
				shapes[k] = []int{rows, cols}
				continue
			}
			for _, e := range x {
				f, ok := e.(float64)
				if !ok {
					return nil, nil, fmt.Errorf("federation: non-numeric vector entry in %q", k)
				}
				flat = append(flat, f)
			}
			shapes[k] = []int{len(x)}
		default:
			return nil, nil, fmt.Errorf("federation: secure key %q has non-numeric type %T", k, v)
		}
	}
	return flat, shapes, nil
}

// numericLen is the number of floats flattenNumeric takes from v, so the
// flat vector is sized once; values it rejects count one.
func numericLen(v any) int {
	switch x := v.(type) {
	case []float64:
		return len(x)
	case [][]float64:
		n := 0
		for _, r := range x {
			n += len(r)
		}
		return n
	case []any:
		n := 0
		for _, e := range x {
			if r, ok := e.([]any); ok {
				n += len(r)
			} else {
				n++
			}
		}
		return n
	}
	return 1
}

// unflattenNumeric rebuilds a transfer from a flat vector and shapes (the
// inverse of flattenNumeric).
func unflattenNumeric(flat []float64, shapes map[string][]int) (Transfer, error) {
	keys := make([]string, 0, len(shapes))
	for k := range shapes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := Transfer{}
	pos := 0
	for _, k := range keys {
		shape := shapes[k]
		switch len(shape) {
		case 0:
			if pos >= len(flat) {
				return nil, fmt.Errorf("federation: flat vector too short at %q", k)
			}
			out[k] = flat[pos]
			pos++
		case 1:
			n := shape[0]
			if pos+n > len(flat) {
				return nil, fmt.Errorf("federation: flat vector too short at %q", k)
			}
			out[k] = append([]float64(nil), flat[pos:pos+n]...)
			pos += n
		case 2:
			rows, cols := shape[0], shape[1]
			if pos+rows*cols > len(flat) {
				return nil, fmt.Errorf("federation: flat vector too short at %q", k)
			}
			m := make([][]float64, rows)
			for i := range m {
				m[i] = append([]float64(nil), flat[pos:pos+cols]...)
				pos += cols
			}
			out[k] = m
		default:
			return nil, fmt.Errorf("federation: unsupported shape %v for %q", shape, k)
		}
	}
	if pos != len(flat) {
		return nil, fmt.Errorf("federation: flat vector length %d does not match shapes (%d consumed)", len(flat), pos)
	}
	return out, nil
}

// shapesEqual verifies all workers reported identical shape directories.
func shapesEqual(a, b map[string][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, av := range a {
		bv, ok := b[k]
		if !ok || len(av) != len(bv) {
			return false
		}
		for i := range av {
			if av[i] != bv[i] {
				return false
			}
		}
	}
	return true
}
