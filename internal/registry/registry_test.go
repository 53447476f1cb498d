package registry

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fleet"
	"repro/internal/serve"
)

// testProblem is the shared training problem: PAMAP-shaped synthetic
// data at modest dimensionality, trained once; tenants Fork it.
var testProblem struct {
	once sync.Once
	ds   *dataset.Dataset
	spec dataset.Spec
	sys  *core.System
	err  error
}

func problem(t testing.TB) (*dataset.Dataset, dataset.Spec, *core.System) {
	t.Helper()
	p := &testProblem
	p.once.Do(func() {
		spec, ok := dataset.ByName("PAMAP")
		if !ok {
			p.err = fmt.Errorf("no PAMAP spec")
			return
		}
		spec.TrainSize, spec.TestSize = 300, 150
		ds, err := dataset.Generate(spec)
		if err != nil {
			p.err = err
			return
		}
		sys, err := core.Train(ds.TrainX, ds.TrainY, spec.Classes, core.Config{
			Dimensions: 2048,
			Seed:       7,
		})
		if err != nil {
			p.err = err
			return
		}
		p.ds, p.spec, p.sys = ds, spec, sys
	})
	if p.err != nil {
		t.Fatal(p.err)
	}
	return p.ds, p.spec, p.sys
}

// freshRegistry builds an empty registry + test server over cfg.
func freshRegistry(t testing.TB, cfg Config) (*Registry, *httptest.Server) {
	t.Helper()
	r := New(cfg)
	ts := httptest.NewServer(r.Handler())
	t.Cleanup(func() {
		ts.Close()
		r.Close()
	})
	return r, ts
}

func postJSON(t testing.TB, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func getJSON(t testing.TB, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
	return resp
}

func doReq(t testing.TB, method, url, contentType string, body []byte) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestRegistryEightTenantsIsolated is the acceptance drill: one
// process serves 8 models — half dense, half LogHD-compressed — each
// with an isolated serving stack. Traffic routes by the request's
// model field, per-tenant metrics stay separate, and an attack drill
// on one tenant leaves every other tenant's memory and counters
// untouched.
func TestRegistryEightTenantsIsolated(t *testing.T) {
	ds, _, base := problem(t)
	r, ts := freshRegistry(t, Config{})

	ids := make([]string, 8)
	for i := range ids {
		ids[i] = fmt.Sprintf("m%d", i)
		sys := base.Fork()
		if i%2 == 1 {
			c, err := sys.CompressLogHD(2)
			if err != nil {
				t.Fatal(err)
			}
			sys = c
		}
		if err := r.Create(ids[i], sys); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.Len(); got != 8 {
		t.Fatalf("registry holds %d tenants, want 8", got)
	}

	// Every tenant answers its own traffic, routed by the model field.
	for i, id := range ids {
		hit := 0
		for j, x := range ds.TestX {
			resp, data := postJSON(t, ts.URL+"/predict", map[string]any{"model": id, "x": x})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("tenant %s predict: %d %s", id, resp.StatusCode, data)
			}
			var pr predictResponse
			if err := json.Unmarshal(data, &pr); err != nil {
				t.Fatal(err)
			}
			if pr.Model != id || pr.Prediction == nil {
				t.Fatalf("tenant %s answered %s", id, data)
			}
			if pr.Prediction.Class == ds.TestY[j] {
				hit++
			}
		}
		acc := float64(hit) / float64(len(ds.TestX))
		floor := 0.8
		if i%2 == 1 {
			floor = 0.6 // compressed backends trade margin for memory
		}
		if acc < floor {
			t.Fatalf("tenant %s accuracy %.3f below %.2f", id, acc, floor)
		}
	}

	// The listing reports every tenant with its backend and counters.
	var listing struct {
		Models   []TenantInfo `json:"models"`
		Registry Stats        `json:"registry"`
	}
	getJSON(t, ts.URL+"/models", &listing)
	if len(listing.Models) != 8 {
		t.Fatalf("/models lists %d tenants", len(listing.Models))
	}
	for i, info := range listing.Models {
		wantBackend := "dense"
		if i%2 == 1 {
			wantBackend = "loghd"
		}
		if info.Backend != wantBackend {
			t.Fatalf("tenant %s backend %q, want %q", info.Model, info.Backend, wantBackend)
		}
		if info.Predictions != int64(len(ds.TestX)) || info.Dispatched != int64(len(ds.TestX)) {
			t.Fatalf("tenant %s counted %d predictions / %d dispatches, want %d",
				info.Model, info.Predictions, info.Dispatched, len(ds.TestX))
		}
	}
	if listing.Registry.Dispatches != int64(8*len(ds.TestX)) {
		t.Fatalf("registry dispatches %d", listing.Registry.Dispatches)
	}

	// Attack one tenant through its passthrough API; its counters move,
	// everyone else's stay at zero.
	resp, data := postJSON(t, ts.URL+"/models/m0/attack", map[string]any{"kind": "random", "rate": 0.05, "seed": 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("attack m0: %d %s", resp.StatusCode, data)
	}
	var doc MetricsDoc
	getJSON(t, ts.URL+"/metrics", &doc)
	if len(doc.Models) != 8 {
		t.Fatalf("/metrics has %d tenant sections", len(doc.Models))
	}
	for id, m := range doc.Models {
		if id == "m0" {
			if m.Attacks != 1 || m.AttackBits == 0 {
				t.Fatalf("m0 attack counters: %+v", m.Attacks)
			}
			continue
		}
		if m.Attacks != 0 || m.AttackBits != 0 {
			t.Fatalf("attack on m0 leaked into %s: %d drills", id, m.Attacks)
		}
	}

	// Per-tenant passthrough /metrics agrees with the aggregate.
	var m1 serve.Metrics
	getJSON(t, ts.URL+"/models/m1/metrics", &m1)
	if m1.Model == nil || m1.Model.Backend != "loghd" {
		t.Fatalf("m1 passthrough metrics: %+v", m1.Model)
	}
}

// TestRegistryUnknownModelWalls pins the 400/404 walls on every
// surface that takes a model id.
func TestRegistryUnknownModelWalls(t *testing.T) {
	ds, _, base := problem(t)
	r, ts := freshRegistry(t, Config{})
	if err := r.Create("live", base.Fork()); err != nil {
		t.Fatal(err)
	}

	// Predict: no model field → 400; unknown id → 404.
	resp, _ := postJSON(t, ts.URL+"/predict", map[string]any{"x": ds.TestX[0]})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("model-less predict: %d", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/predict", map[string]any{"model": "ghost", "x": ds.TestX[0]})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown-model predict: %d", resp.StatusCode)
	}

	// Tenant sub-resources 404 for unknown ids — every serve handler is
	// behind the same wall.
	for _, path := range []string{"/models/ghost", "/models/ghost/metrics", "/models/ghost/snapshot", "/models/ghost/healthz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: %d, want 404", path, resp.StatusCode)
		}
	}
	resp, _ = postJSON(t, ts.URL+"/models/ghost/attack", map[string]any{"kind": "random", "rate": 0.01})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("attack on unknown model: %d", resp.StatusCode)
	}
	resp, _ = doReq(t, http.MethodDelete, ts.URL+"/models/ghost", "", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("delete unknown model: %d", resp.StatusCode)
	}

	// Create walls: bad ids 400, duplicates 409.
	resp, _ = postJSON(t, ts.URL+"/models", map[string]any{
		"id": "has space", "x": ds.TrainX[:8], "y": ds.TrainY[:8], "classes": 5})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad id create: %d", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/models", map[string]any{
		"id": "huge", "x": ds.TrainX[:8], "y": ds.TrainY[:8], "classes": 5, "dimensions": 1024, "levels": 1 << 20})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("create with 128 MiB of level memory: %d", resp.StatusCode)
	}
	// 8000 classes at D=10k ask for 320 MB of training counters; 1000
	// features at D=2^20 for 128 MiB of item memory.
	resp, _ = postJSON(t, ts.URL+"/models", map[string]any{
		"id": "wide", "x": ds.TrainX[:8], "y": ds.TrainY[:8], "classes": 8000})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("create with 320 MB of training counters: %d", resp.StatusCode)
	}
	ones := make([]float64, 1000)
	for i := range ones {
		ones[i] = 1
	}
	resp, _ = postJSON(t, ts.URL+"/models", map[string]any{
		"id": "tall", "x": [][]float64{make([]float64, 1000), ones}, "y": []int{0, 1},
		"classes": 2, "dimensions": 1 << 20})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("create with 128 MiB of item memory: %d", resp.StatusCode)
	}
	if err := r.Create("live", base.Fork()); !errors.Is(err, ErrModelExists) {
		t.Fatalf("duplicate create: %v", err)
	}

	// The live tenant still works after all the misses.
	resp, _ = postJSON(t, ts.URL+"/predict", map[string]any{"model": "live", "x": ds.TestX[0]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("live predict after walls: %d", resp.StatusCode)
	}
	if st := r.StatsSnapshot(); st.UnknownModel == 0 {
		t.Fatal("unknown-model counter never moved")
	}
}

// TestRegistrySnapshotUploadRoundTrip creates tenants from uploaded
// stamped snapshots — dense and LogHD — and pins the backend-tag
// declaration wall: a snapshot whose tag contradicts ?backend= is
// refused with 400 in both directions. Uploads pass /restore's
// admission rules too: a stamp below the checkpoint floor, or an
// anchor the template's journal cannot verify, is refused with 400.
func TestRegistrySnapshotUploadRoundTrip(t *testing.T) {
	ds, _, base := problem(t)
	r, ts := freshRegistry(t, Config{})
	if err := r.Create("dense0", base.Fork()); err != nil {
		t.Fatal(err)
	}
	compressed, err := base.Fork().CompressLogHD(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Create("log0", compressed); err != nil {
		t.Fatal(err)
	}

	fetch := func(id string) []byte {
		resp, err := http.Get(ts.URL + "/models/" + id + "/snapshot")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("snapshot %s: %d", id, resp.StatusCode)
		}
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	denseSnap, logSnap := fetch("dense0"), fetch("log0")

	// Round trip: upload both images as new tenants and serve from them.
	resp, data := doReq(t, http.MethodPut, ts.URL+"/models/dense1?backend=dense", "application/octet-stream", denseSnap)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("dense upload: %d %s", resp.StatusCode, data)
	}
	resp, data = doReq(t, http.MethodPut, ts.URL+"/models/log1?backend=loghd", "application/octet-stream", logSnap)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("loghd upload: %d %s", resp.StatusCode, data)
	}
	var out map[string]any
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out["backend"] != "loghd" {
		t.Fatalf("uploaded loghd tenant reports backend %v", out["backend"])
	}
	for _, id := range []string{"dense1", "log1"} {
		resp, data := postJSON(t, ts.URL+"/predict", map[string]any{"model": id, "x": ds.TestX[0]})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("uploaded tenant %s predict: %d %s", id, resp.StatusCode, data)
		}
	}

	// Backend-tag rejection, both directions.
	resp, data = doReq(t, http.MethodPut, ts.URL+"/models/wrong1?backend=loghd", "application/octet-stream", denseSnap)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), "backend") {
		t.Fatalf("dense image declared loghd: %d %s", resp.StatusCode, data)
	}
	resp, data = doReq(t, http.MethodPut, ts.URL+"/models/wrong2?backend=dense", "application/octet-stream", logSnap)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), "backend") {
		t.Fatalf("loghd image declared dense: %d %s", resp.StatusCode, data)
	}
	// Neither refused id became a tenant.
	for _, id := range []string{"wrong1", "wrong2"} {
		if _, err := r.Server(id); !errors.Is(err, ErrUnknownModel) {
			t.Fatalf("refused upload %s left a tenant behind: %v", id, err)
		}
	}

	// Garbage uploads are 400, not 500.
	resp, _ = doReq(t, http.MethodPut, ts.URL+"/models/junk", "application/octet-stream", []byte("not a snapshot"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage upload: %d", resp.StatusCode)
	}

	// A snapshot stamped below the checkpoint floor (default 0.5) claims
	// an already-degraded model: refused.
	var low bytes.Buffer
	if err := base.SaveStamped(&low, 0.1); err != nil {
		t.Fatal(err)
	}
	resp, data = doReq(t, http.MethodPut, ts.URL+"/models/degraded", "application/octet-stream", low.Bytes())
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), "floor") {
		t.Fatalf("upload stamped 0.1: %d %s", resp.StatusCode, data)
	}

	// With a journal on the template, a snapshot anchored to a foreign
	// journal's lineage is refused; an unanchored one still installs.
	sealed := func() *fleet.Journal {
		j := fleet.NewJournal(io.Discard)
		for i := 0; i < 4; i++ {
			if err := j.Append(fleet.Event{Kind: fleet.EventQuarantine, Replica: -1, Class: -1, Chunk: -1}); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.SealNow(); err != nil {
			t.Fatal(err)
		}
		return j
	}
	_, jts := freshRegistry(t, Config{Serve: serve.Config{Journal: sealed()}})
	fa, ok := sealed().Anchor()
	if !ok {
		t.Fatal("foreign journal has no anchor after seal")
	}
	var foreign bytes.Buffer
	if err := base.SaveAnchored(&foreign, 0.99, &fa); err != nil {
		t.Fatal(err)
	}
	resp, data = doReq(t, http.MethodPut, jts.URL+"/models/foreign", "application/octet-stream", foreign.Bytes())
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("foreign-anchored upload: %d %s", resp.StatusCode, data)
	}
	resp, data = doReq(t, http.MethodPut, jts.URL+"/models/plain", "application/octet-stream", denseSnap)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("unanchored upload with a journal: %d %s", resp.StatusCode, data)
	}
}

// TestRegistryCreateDeleteChurnUnderLoad is the race drill: a stable
// tenant takes continuous /predict traffic while other tenants are
// created and deleted concurrently. Run under -race this pins the
// copy-on-write dispatch map and the drain barrier.
func TestRegistryCreateDeleteChurnUnderLoad(t *testing.T) {
	ds, _, base := problem(t)
	r, _ := freshRegistry(t, Config{Serve: serve.Config{DisableRecovery: true}})
	if err := r.Create("stable", base.Fork()); err != nil {
		t.Fatal(err)
	}

	const churners = 3
	const rounds = 8
	stop := make(chan struct{})
	errCh := make(chan error, churners+2)

	// Predict workers hammer the stable tenant until the churn is over.
	var predictors sync.WaitGroup
	for w := 0; w < 2; w++ {
		predictors.Add(1)
		go func(w int) {
			defer predictors.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := r.Predict("stable", "", ds.TestX[(i+w)%len(ds.TestX)]); err != nil {
					errCh <- fmt.Errorf("stable predict: %w", err)
					return
				}
			}
		}(w)
	}
	// Churners create, serve one request through, and delete their own
	// tenants in a loop.
	var churn sync.WaitGroup
	for c := 0; c < churners; c++ {
		churn.Add(1)
		go func(c int) {
			defer churn.Done()
			for round := 0; round < rounds; round++ {
				id := fmt.Sprintf("churn-%d-%d", c, round)
				if err := r.Create(id, base.Fork()); err != nil {
					errCh <- fmt.Errorf("create %s: %w", id, err)
					return
				}
				if _, err := r.Predict(id, "", ds.TestX[round%len(ds.TestX)]); err != nil {
					errCh <- fmt.Errorf("churn predict %s: %w", id, err)
					return
				}
				if err := r.Delete(id); err != nil {
					errCh <- fmt.Errorf("delete %s: %w", id, err)
					return
				}
			}
		}(c)
	}
	churn.Wait()
	close(stop)
	predictors.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	if got := r.Len(); got != 1 {
		t.Fatalf("%d tenants after churn, want 1", got)
	}
	// Deleted ids are gone; the stable tenant still serves.
	if _, err := r.Predict("churn-0-0", "", ds.TestX[0]); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("deleted tenant still routable: %v", err)
	}
	if _, err := r.Predict("stable", "", ds.TestX[0]); err != nil {
		t.Fatalf("stable tenant broken after churn: %v", err)
	}
}

// TestRegistrySharedJournalTagsTenants mounts one journal under every
// tenant and checks lifecycle events land tagged with their tenant's
// model id — the multi-tenant flight recorder contract.
func TestRegistrySharedJournalTagsTenants(t *testing.T) {
	ds, _, base := problem(t)
	var buf bytes.Buffer
	j := fleet.NewJournal(&buf)
	r, _ := freshRegistry(t, Config{Serve: serve.Config{Journal: j}})

	for _, id := range []string{"alpha", "beta"} {
		if err := r.Create(id, base.Fork()); err != nil {
			t.Fatal(err)
		}
		srv, err := r.Server(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.SetProbe(ds.TestX, ds.TestY); err != nil {
			t.Fatal(err)
		}
		// A watchdog window over a healthy probe captures a checkpoint —
		// one journaled event per tenant.
		rep := srv.WatchdogNow()
		if !rep.Checkpointed {
			t.Fatalf("tenant %s watchdog did not checkpoint: %+v", id, rep)
		}
	}

	events, err := fleet.Replay(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, e := range events {
		seen[e.ModelOr("untagged")]++
	}
	if seen["alpha"] == 0 || seen["beta"] == 0 || seen["untagged"] != 0 {
		t.Fatalf("journal tenant tags: %v", seen)
	}
}

// TestRingConsistency pins the dispatch ring: lookups are stable,
// every shard is reachable, and identical keys map identically across
// rebuilds.
func TestRingConsistency(t *testing.T) {
	const shards = 8
	r1 := buildRing("tenant", shards)
	r2 := buildRing("tenant", shards)
	hit := make([]int, shards)
	for i := 0; i < 4096; i++ {
		h := hashKey(fmt.Sprintf("key-%d", i))
		s1, s2 := r1.lookup(h), r2.lookup(h)
		if s1 != s2 {
			t.Fatalf("key %d unstable: %d vs %d", i, s1, s2)
		}
		if s1 < 0 || s1 >= shards {
			t.Fatalf("key %d out of range: %d", i, s1)
		}
		hit[s1]++
	}
	for s, n := range hit {
		if n == 0 {
			t.Fatalf("shard %d unreachable", s)
		}
	}
	// Different tenants get independent layouts.
	other := buildRing("other", shards)
	same := 0
	for i := 0; i < 256; i++ {
		h := hashKey(fmt.Sprintf("key-%d", i))
		if r1.lookup(h) == other.lookup(h) {
			same++
		}
	}
	if same == 256 {
		t.Fatal("two tenants share an identical ring layout")
	}
}

// TestValidateModelID pins the id wall.
func TestValidateModelID(t *testing.T) {
	for _, bad := range []string{"", "a/b", "a b", "a\tb", "a\nb", strings.Repeat("x", MaxModelIDLen+1), "a\x00b"} {
		if err := ValidateModelID(bad); err == nil {
			t.Fatalf("id %q accepted", bad)
		}
	}
	for _, good := range []string{"m0", "pamap-loghd", "A.b_c-9", strings.Repeat("x", MaxModelIDLen)} {
		if err := ValidateModelID(good); err != nil {
			t.Fatalf("id %q refused: %v", good, err)
		}
	}
}
