package engine

import (
	"fmt"
	"strings"
)

// ColumnDef describes one column of a table schema.
type ColumnDef struct {
	Name string
	Type Type
}

// Schema is an ordered list of column definitions.
type Schema []ColumnDef

// ColIndex returns the position of the named column, or -1.
func (s Schema) ColIndex(name string) int {
	for i, c := range s {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// Names returns the column names in order.
func (s Schema) Names() []string {
	out := make([]string, len(s))
	for i, c := range s {
		out[i] = c.Name
	}
	return out
}

// Equal reports whether two schemas have the same names and types.
func (s Schema) Equal(o Schema) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if !strings.EqualFold(s[i].Name, o[i].Name) || s[i].Type != o[i].Type {
			return false
		}
	}
	return true
}

// Table is an in-memory columnar table: the engine's storage unit and also
// the result format of every query.
type Table struct {
	schema Schema
	cols   []*Vector
}

// NewTable creates an empty table with the given schema.
func NewTable(schema Schema) *Table {
	t := &Table{schema: schema, cols: make([]*Vector, len(schema))}
	for i, c := range schema {
		t.cols[i] = NewVector(c.Type)
	}
	return t
}

// NewTableFromVectors builds a table over existing vectors (no copy).
// All vectors must have the same length.
func NewTableFromVectors(schema Schema, cols []*Vector) (*Table, error) {
	if len(schema) != len(cols) {
		return nil, fmt.Errorf("engine: schema has %d columns, got %d vectors", len(schema), len(cols))
	}
	n := -1
	for i, v := range cols {
		if v.Type() != schema[i].Type {
			return nil, fmt.Errorf("engine: column %q type mismatch: schema %v, vector %v", schema[i].Name, schema[i].Type, v.Type())
		}
		if n == -1 {
			n = v.Len()
		} else if v.Len() != n {
			return nil, fmt.Errorf("engine: ragged table: column %q has %d rows, expected %d", schema[i].Name, v.Len(), n)
		}
	}
	return &Table{schema: schema, cols: cols}, nil
}

// Schema returns the table schema.
func (t *Table) Schema() Schema { return t.schema }

// NumRows returns the number of rows.
func (t *Table) NumRows() int {
	if len(t.cols) == 0 {
		return 0
	}
	return t.cols[0].Len()
}

// NumCols returns the number of columns.
func (t *Table) NumCols() int { return len(t.cols) }

// Col returns the i-th column vector.
func (t *Table) Col(i int) *Vector { return t.cols[i] }

// ColByName returns the named column vector, or nil. Over joined tables
// (whose columns carry qualified alias.col names), an unqualified name
// resolves when exactly one column's suffix matches.
func (t *Table) ColByName(name string) *Vector {
	if i := t.colIndex(name); i >= 0 {
		return t.cols[i]
	}
	return nil
}

// colIndex is ColByName's resolution, returning the column's position or -1.
func (t *Table) colIndex(name string) int {
	if i := t.schema.ColIndex(name); i >= 0 || strings.Contains(name, ".") {
		return i
	}
	suffix := "." + strings.ToLower(name)
	match := -1
	for j, c := range t.schema {
		if strings.HasSuffix(strings.ToLower(c.Name), suffix) {
			if match >= 0 {
				return -1 // ambiguous
			}
			match = j
		}
	}
	return match
}

// AppendRow appends one row of Go values (nil = NULL). Values are converted
// to the column types.
func (t *Table) AppendRow(vals ...any) error {
	if len(vals) != len(t.cols) {
		return fmt.Errorf("engine: row has %d values, table has %d columns", len(vals), len(t.cols))
	}
	for i, v := range vals {
		if err := t.cols[i].AppendValue(v); err != nil {
			return fmt.Errorf("engine: column %q: %w", t.schema[i].Name, err)
		}
	}
	return nil
}

// Row returns row i as a slice of Go values (nil = NULL).
func (t *Table) Row(i int) []any {
	out := make([]any, len(t.cols))
	for j, c := range t.cols {
		out[j] = c.Value(i)
	}
	return out
}

// Slice returns a zero-copy row-range view [lo, hi) of the table: the
// morsel the parallel operators run on. Views are read-only.
func (t *Table) Slice(lo, hi int) *Table {
	cols := make([]*Vector, len(t.cols))
	for i, c := range t.cols {
		cols[i] = c.Slice(lo, hi)
	}
	return &Table{schema: t.schema, cols: cols}
}

// Gather returns a new table with the selected rows.
func (t *Table) Gather(sel []int32) *Table {
	cols := make([]*Vector, len(t.cols))
	for i, c := range t.cols {
		cols[i] = c.Gather(sel)
	}
	return &Table{schema: t.schema, cols: cols}
}

// Append appends all rows of o (schemas must match) column by column — the
// merge-table union primitive. A union grown by successive Appends is
// identical, dictionary codes included, to concatenating the parts at once.
func (t *Table) Append(o *Table) error {
	if !t.schema.Equal(o.schema) {
		return fmt.Errorf("engine: cannot append table with schema %v to %v", o.schema.Names(), t.schema.Names())
	}
	for j, c := range t.cols {
		appendVector(c, o.cols[j])
	}
	return nil
}

// Float64Column extracts the named column as []float64 plus a missing-count;
// NULLs are dropped. Int columns are converted. This is the bridge between
// the engine and the numeric algorithm kernels.
func (t *Table) Float64Column(name string) (vals []float64, missing int, err error) {
	v := t.ColByName(name)
	if v == nil {
		return nil, 0, fmt.Errorf("engine: no column %q", name)
	}
	f := v.CastFloat64()
	vals = make([]float64, 0, f.Len())
	for i := 0; i < f.Len(); i++ {
		if f.IsNull(i) {
			missing++
			continue
		}
		vals = append(vals, f.Float64s()[i])
	}
	return vals, missing, nil
}

// StringColumn extracts the named column as []string; NULLs become "".
func (t *Table) StringColumn(name string) ([]string, error) {
	v := t.ColByName(name)
	if v == nil {
		return nil, fmt.Errorf("engine: no column %q", name)
	}
	out := make([]string, v.Len())
	for i := 0; i < v.Len(); i++ {
		if v.IsNull(i) {
			continue
		}
		switch v.Type() {
		case String:
			out[i] = v.StringAt(i)
		default:
			out[i] = fmt.Sprint(v.Value(i))
		}
	}
	return out, nil
}

// String renders the table as aligned text (for CLI output and debugging).
func (t *Table) String() string {
	var b strings.Builder
	widths := make([]int, len(t.schema))
	rows := make([][]string, t.NumRows())
	for j, c := range t.schema {
		widths[j] = len(c.Name)
	}
	for i := 0; i < t.NumRows(); i++ {
		rows[i] = make([]string, len(t.cols))
		for j, c := range t.cols {
			s := "NULL"
			if !c.IsNull(i) {
				switch c.Type() {
				case Float64:
					s = fmt.Sprintf("%.6g", c.Float64s()[i])
				default:
					s = fmt.Sprint(c.Value(i))
				}
			}
			rows[i][j] = s
			if len(s) > widths[j] {
				widths[j] = len(s)
			}
		}
	}
	for j, c := range t.schema {
		if j > 0 {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%-*s", widths[j], c.Name)
	}
	b.WriteByte('\n')
	for _, r := range rows {
		for j, s := range r {
			if j > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[j], s)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ByteSize estimates the payload bytes across all columns (see
// Vector.ByteSize); the profiling tree uses it to approximate how much an
// operator materialized.
func (t *Table) ByteSize() int64 {
	var b int64
	for _, c := range t.cols {
		b += c.ByteSize()
	}
	return b
}
