// Package etl implements the ingestion pipeline that uploads hospital
// source data into the worker's data engine: the paper notes "the source
// data in each hospital may be stored in a different form (e.g., csv
// files) or system and MIP provides the required ETL processes to upload
// it to MonetDB". The pipeline maps heterogeneous source columns onto the
// harmonized CDE schema: renames, unit rescaling, categorical recoding,
// range checks, and a data-quality report.
package etl

import (
	"fmt"
	"io"
	"math"
	"strings"

	"mip/internal/catalogue"
	"mip/internal/engine"
)

// Rule transforms one source column into one CDE variable.
type Rule struct {
	// Source is the column name in the hospital file.
	Source string
	// Target is the CDE code it maps to (defaults to Source).
	Target string
	// Scale multiplies numeric values (unit conversion; 0 = 1).
	Scale float64
	// Offset is added after scaling.
	Offset float64
	// Recode maps source category strings to CDE enumerations.
	Recode map[string]string
	// Required marks the variable as mandatory: rows with NULL are dropped.
	Required bool
}

// Mapping is a full source→CDE specification.
type Mapping struct {
	Rules []Rule
	// Dataset stamps every row's dataset column.
	Dataset string
}

// QualityReport summarizes what the load did — shown to the data manager
// before the dataset goes live.
type QualityReport struct {
	RowsIn        int
	RowsOut       int
	RowsDropped   int            // missing required values
	NullCells     map[string]int // per target column
	RangeErrors   map[string]int // values outside CDE min/max (nulled)
	RecodeMisses  map[string]int // unmapped categories (nulled)
	UnknownSource []string       // mapped sources absent from the input
}

// Load applies the mapping to a source table and produces a table in CDE
// layout: row_id, dataset, then one column per rule target. CDE metadata
// (from the pathology) drives type selection and range validation.
func Load(src *engine.Table, m Mapping, path *catalogue.Pathology) (*engine.Table, *QualityReport, error) {
	if m.Dataset == "" {
		return nil, nil, fmt.Errorf("etl: mapping needs a dataset code")
	}
	report := &QualityReport{
		RowsIn:       src.NumRows(),
		NullCells:    map[string]int{},
		RangeErrors:  map[string]int{},
		RecodeMisses: map[string]int{},
	}

	type colPlan struct {
		rule   Rule
		srcIdx int
		cde    *catalogue.Variable
		typ    engine.Type
	}
	var plans []colPlan
	schema := engine.Schema{
		{Name: "row_id", Type: engine.Int64},
		{Name: "dataset", Type: engine.String},
	}
	for _, r := range m.Rules {
		if r.Target == "" {
			r.Target = r.Source
		}
		if r.Scale == 0 {
			r.Scale = 1
		}
		idx := src.Schema().ColIndex(r.Source)
		if idx < 0 {
			report.UnknownSource = append(report.UnknownSource, r.Source)
			continue
		}
		var cde *catalogue.Variable
		typ := engine.Float64
		if path != nil {
			cde = path.Variable(r.Target)
		}
		if cde != nil {
			switch cde.Type {
			case catalogue.Nominal, catalogue.Text:
				typ = engine.String
			case catalogue.Integer:
				typ = engine.Int64
			}
		} else if src.Schema()[idx].Type == engine.String && r.Recode == nil {
			typ = engine.String
		}
		plans = append(plans, colPlan{rule: r, srcIdx: idx, cde: cde, typ: typ})
		schema = append(schema, engine.ColumnDef{Name: r.Target, Type: typ})
	}

	out := engine.NewTable(schema)
	rowID := int64(0)
	for i := 0; i < src.NumRows(); i++ {
		row := make([]any, len(schema))
		row[1] = m.Dataset
		drop := false
		for pi, p := range plans {
			cell := transformCell(src, i, p.srcIdx, p.rule, p.typ, p.cde, p.rule.Target, report)
			if cell == nil {
				report.NullCells[p.rule.Target]++
				if p.rule.Required {
					drop = true
				}
			}
			row[2+pi] = cell
		}
		if drop {
			report.RowsDropped++
			continue
		}
		row[0] = rowID
		rowID++
		if err := out.AppendRow(row...); err != nil {
			return nil, nil, fmt.Errorf("etl: row %d: %w", i, err)
		}
	}
	report.RowsOut = out.NumRows()
	return out, report, nil
}

func transformCell(src *engine.Table, row, col int, r Rule, typ engine.Type, cde *catalogue.Variable, target string, report *QualityReport) any {
	v := src.Col(col)
	if v.IsNull(row) {
		return nil
	}
	if typ == engine.String {
		s := valueString(v, row)
		if r.Recode != nil {
			mapped, ok := r.Recode[s]
			if !ok {
				report.RecodeMisses[target]++
				return nil
			}
			s = mapped
		}
		if cde != nil {
			if err := cde.Validate(s); err != nil {
				report.RangeErrors[target]++
				return nil
			}
		}
		return s
	}
	// Numeric path.
	f, ok := valueFloat(v, row)
	if !ok {
		return nil
	}
	f = f*r.Scale + r.Offset
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return nil
	}
	if cde != nil {
		if err := cde.Validate(f); err != nil {
			report.RangeErrors[target]++
			return nil
		}
	}
	if typ == engine.Int64 {
		return int64(math.Round(f))
	}
	return f
}

func valueString(v *engine.Vector, i int) string {
	if v.Type() == engine.String {
		return v.StringAt(i)
	}
	return strings.TrimSpace(fmt.Sprint(v.Value(i)))
}

func valueFloat(v *engine.Vector, i int) (float64, bool) {
	f := v.CastFloat64()
	if f.IsNull(i) {
		return 0, false
	}
	return f.Float64s()[i], true
}

// LoadCSV is the one-call path: parse CSV, apply the mapping, register the
// result as (or append to) the worker's data table.
func LoadCSV(r io.Reader, m Mapping, path *catalogue.Pathology, db *engine.DB, tableName string) (*QualityReport, error) {
	schema, raw, err := readAll(r)
	if err != nil {
		return nil, err
	}
	_ = schema
	harmonized, report, err := Load(raw, m, path)
	if err != nil {
		return nil, err
	}
	if db.Table(tableName) != nil {
		// One DB write: the new rows get a new table version and bump the
		// loaded dataset's version, so cached results over it go stale.
		if err := db.Append(tableName, harmonized); err != nil {
			return nil, fmt.Errorf("etl: appending to %s: %w", tableName, err)
		}
		return report, nil
	}
	db.RegisterTable(tableName, harmonized)
	return report, nil
}

func readAll(r io.Reader) (engine.Schema, *engine.Table, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, nil, err
	}
	schema, err := engine.InferSchema(strings.NewReader(string(data)), 0)
	if err != nil {
		return nil, nil, err
	}
	t, err := engine.LoadCSV(strings.NewReader(string(data)), schema)
	if err != nil {
		return nil, nil, err
	}
	return schema, t, nil
}

// IdentityMapping builds a mapping that passes the named CDE variables
// through unchanged — used when the source is already harmonized (e.g. the
// synthetic cohorts).
func IdentityMapping(dataset string, vars []string) Mapping {
	m := Mapping{Dataset: dataset}
	for _, v := range vars {
		m.Rules = append(m.Rules, Rule{Source: v})
	}
	return m
}
