package federation

import (
	"bytes"
	"fmt"

	"mip/internal/engine"
)

// WireTable is an engine table in its wire form: the table stream a /query
// answer carries (engine.WriteTable), marshalled to JSON as one base64 field.
type WireTable struct {
	Frame []byte `json:"frame"`
}

// EncodeTable converts an engine table to its wire form.
func EncodeTable(t *engine.Table) *WireTable {
	if t == nil {
		return nil
	}
	var b bytes.Buffer
	_ = engine.WriteTable(&b, t) // writes to a bytes.Buffer cannot fail
	return &WireTable{Frame: b.Bytes()}
}

// DecodeTable converts a wire table back to an engine table.
func DecodeTable(w *WireTable) (*engine.Table, error) {
	if w == nil {
		return nil, fmt.Errorf("federation: nil wire table")
	}
	return engine.ReadTable(bytes.NewReader(w.Frame))
}
