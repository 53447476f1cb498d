// Request-decode benchmark: the cost of reading one served predict
// body, encoding/json against the shared codec's fast path.
package repro_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"repro/internal/dataset"
	"repro/internal/httpjson"
)

// tenantPredict is the registry's /predict body.
type tenantPredict struct {
	Model string      `json:"model"`
	Key   string      `json:"key,omitempty"`
	X     []float64   `json:"x,omitempty"`
	Xs    [][]float64 `json:"xs,omitempty"`
}

// BenchmarkDecodePredictBody decodes the http_tenants request body —
// a model id and 8 PAMAP samples of 75 features — from a request, as
// the registry's /predict handler does. "std" is encoding/json reading
// the body itself; "codec" is httpjson.DecodePredict.
func BenchmarkDecodePredictBody(b *testing.B) {
	spec := dataset.PAMAP()
	spec.TrainSize, spec.TestSize = 10, 8
	ds, err := dataset.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(map[string]any{"model": "alpha", "xs": ds.TestX[:8]})
	if err != nil {
		b.Fatal(err)
	}
	const limit = 256 << 20
	rd := bytes.NewReader(body)
	r := &http.Request{Body: io.NopCloser(rd)}
	for _, bc := range []struct {
		name   string
		decode func(*tenantPredict) error
	}{
		{"std", func(req *tenantPredict) error {
			return json.NewDecoder(http.MaxBytesReader(nil, r.Body, limit)).Decode(req)
		}},
		{"codec", func(req *tenantPredict) error {
			return httpjson.DecodePredict(r, limit, req, httpjson.Fields{Model: &req.Model, Key: &req.Key, X: &req.X, Xs: &req.Xs})
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rd.Reset(body)
				var req tenantPredict
				if err := bc.decode(&req); err != nil || len(req.Xs) != 8 {
					b.Fatalf("decoded %d rows: %v", len(req.Xs), err)
				}
			}
		})
	}
}
