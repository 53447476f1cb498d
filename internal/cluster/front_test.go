package cluster_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/registry"
	"repro/internal/serve"
)

// TestPredictRuleAllFronts drives the x/xs request rule through the
// three predict fronts — a single-model server, a registry tenant and
// a coordinator — and holds their statuses, error texts and response
// shapes equal.
func TestPredictRuleAllFronts(t *testing.T) {
	ds, sys := problem(t)

	srv, err := serve.New(sys.Fork(), serve.Config{DisableRecovery: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	reg := registry.New(registry.Config{Serve: serve.Config{DisableRecovery: true}})
	t.Cleanup(reg.Close)
	if err := reg.Create("alpha", sys.Fork()); err != nil {
		t.Fatal(err)
	}
	co := newCoordinator(t, cluster.Config{Nodes: startNodes(t, snapshotOf(t, sys), 3), Retries: -1})

	fronts := []struct {
		name  string
		h     http.Handler
		extra map[string]any // body fields the front needs besides x/xs
	}{
		{"serve", srv.Handler(), nil},
		{"registry", reg.Handler(), map[string]any{"model": "alpha"}},
		{"coordinator", co.Handler(), nil},
	}
	x, xs := ds.TestX[0], ds.TestX[:3]
	cases := []struct {
		name   string
		body   map[string]any
		status int
		want   string // error text or response key
	}{
		{"both keys", map[string]any{"x": x, "xs": xs}, http.StatusBadRequest, "provide x or xs, not both"},
		{"neither key", map[string]any{}, http.StatusBadRequest, "empty request: provide x or xs"},
		{"empty batch", map[string]any{"xs": [][]float64{}}, http.StatusBadRequest, "empty request: provide x or xs"},
		{"single x", map[string]any{"x": x}, http.StatusOK, "prediction"},
		{"batch xs", map[string]any{"xs": xs}, http.StatusOK, "predictions"},
	}
	for _, f := range fronts {
		hs := httptest.NewServer(f.h)
		t.Cleanup(hs.Close)
		for _, tc := range cases {
			body := map[string]any{}
			for k, v := range tc.body {
				body[k] = v
			}
			for k, v := range f.extra {
				body[k] = v
			}
			raw, err := json.Marshal(body)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(hs.URL+"/predict", "application/json", bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			data, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.status {
				t.Errorf("%s %s: status %d, want %d (%s)", f.name, tc.name, resp.StatusCode, tc.status, data)
				continue
			}
			var doc map[string]json.RawMessage
			if err := json.Unmarshal(data, &doc); err != nil {
				t.Fatalf("%s %s: %v (%s)", f.name, tc.name, err, data)
			}
			if tc.status != http.StatusOK {
				var msg string
				if err := json.Unmarshal(doc["error"], &msg); err != nil || !strings.HasSuffix(msg, tc.want) {
					t.Errorf("%s %s: error %q, want it to end in %q", f.name, tc.name, msg, tc.want)
				}
				continue
			}
			other := map[string]string{"prediction": "predictions", "predictions": "prediction"}[tc.want]
			if _, ok := doc[tc.want]; !ok {
				t.Errorf("%s %s: response %s lacks %q", f.name, tc.name, data, tc.want)
			}
			if _, ok := doc[other]; ok {
				t.Errorf("%s %s: response %s carries %q", f.name, tc.name, data, other)
			}
		}
	}
}
