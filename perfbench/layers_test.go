package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestLayerMapMatchesManifest keeps the layer map in layers.json and the
// per_layer list in BENCHMARK.json naming the same metrics, and checks
// that a traced run measures every one of them.
func TestLayerMapMatchesManifest(t *testing.T) {
	list, err := readPerLayer("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Layers []struct {
			Layer   string   `json:"layer"`
			Metrics []string `json:"metrics"`
		} `json:"layers"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("layers.json: %v", err)
	}
	mapped := map[string]string{}
	for _, l := range doc.Layers {
		for _, m := range l.Metrics {
			if prev, dup := mapped[m]; dup {
				t.Errorf("%s is under both %q and %q", m, prev, l.Layer)
			}
			mapped[m] = l.Layer
		}
	}
	listed := map[string]bool{}
	for _, m := range list {
		if listed[m.Name] {
			t.Errorf("%s is listed twice in BENCHMARK.json", m.Name)
		}
		listed[m.Name] = true
		if _, ok := mapped[m.Name]; !ok {
			t.Errorf("%s is in BENCHMARK.json but under no layer in layers.json", m.Name)
		}
	}
	for m := range mapped {
		if !listed[m] {
			t.Errorf("%s is in layers.json but not in BENCHMARK.json per_layer", m)
		}
	}
	if _, err := layerMetrics(list, newTracer(), counters{}, counters{}, window{}, window{}, []setupTimes{{}}); err != nil {
		t.Error(err)
	}
}
