package federation

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"mip/internal/obs"
	"mip/internal/smpc"
)

// updateGolden rewrites the checked-in step envelopes instead of comparing
// against them. The format is versioned: a deliberate change bumps the
// version byte first, then re-records with
// `go test ./internal/federation -run TestStepEnvelopeGolden -update`.
var updateGolden = flag.Bool("update", false, "rewrite the golden step envelopes in testdata")

// TestStepEnvelopeGolden pins the step envelope's bytes: a full request and
// a traced answer (one transfer key and one attribute per span, so map
// order cannot move a byte) must encode exactly as recorded and decode back
// to identical values.
func TestStepEnvelopeGolden(t *testing.T) {
	req := stepRequests()[0]
	start := time.Unix(1760000000, 123456789)
	resp := LocalRunResponse{
		WorkerID: "hospital-ü",
		Transfer: Transfer{"mins": Matrix(2, 2, []float64{-1, 5e-324, -0.5, 1e300}).WithOp(smpc.OpMin)},
		Rows:     1 << 40,
		Spans: []obs.SpanData{
			{TraceID: "exp-1", SpanID: "a-000001", Parent: "m-000009", Name: "exec desc_summary",
				Start: start, End: start.Add(1234567 * time.Nanosecond), Attrs: map[string]string{"worker": "hospital-ü"}},
			{TraceID: "exp-1", SpanID: "a-000002", Parent: "a-000001", Name: "engine query", Err: "boom: ü"},
		},
	}
	for _, c := range []struct {
		name string
		body []byte
	}{{"request.mips", req.appendStep(nil)}, {"response.mips", resp.appendStep(nil)}} {
		path := filepath.Join("testdata", c.name)
		if *updateGolden {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, c.body, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(c.body, want) {
			t.Fatalf("%s drifted:\n got %x\nwant %x", c.name, c.body, want)
		}
	}
	var backReq LocalRunRequest
	if err := backReq.decodeStep(req.appendStep(nil)); err != nil || !reflect.DeepEqual(req, backReq) {
		t.Fatalf("request %+v decoded as %+v (%v)", req, backReq, err)
	}
	var backResp LocalRunResponse
	if err := backResp.decodeStep(resp.appendStep(nil)); err != nil {
		t.Fatal(err)
	}
	sameResponse(t, "golden", resp, backResp)
}
