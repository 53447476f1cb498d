package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
)

// testProblem is a small, fast dataset + system shared by the serving
// tests: PAMAP-shaped synthetic data, modest dimensionality.
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
			Dimensions: 4096,
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

// freshServer trains a private system (tests mutate the model) and
// wraps it in a server + httptest.Server.
func freshServer(t testing.TB, cfg Config) (*Server, *httptest.Server, *dataset.Dataset) {
	t.Helper()
	ds, spec, _ := problem(t)
	sys, err := core.Train(ds.TrainX, ds.TrainY, spec.Classes, core.Config{
		Dimensions: 4096,
		Seed:       7,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts, ds
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
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

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

// TestNewRejectsNonFiniteWatchdogKnobs pins the uniform NaN/Inf
// rejection on the watchdog's float knobs: fillDefaults's `v <= 0`
// tests keep NaN, and a NaN AccuracyDrop makes every health comparison
// false — the watchdog would never trip.
func TestNewRejectsNonFiniteWatchdogKnobs(t *testing.T) {
	_, _, sys := problem(t)
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, cfg := range []Config{
			{Watchdog: WatchdogConfig{AccuracyDrop: v}},
			{Watchdog: WatchdogConfig{MinCheckpointAccuracy: v}},
		} {
			if srv, err := New(sys, cfg); err == nil {
				srv.Close()
				t.Errorf("watchdog config with %v knob accepted", v)
			}
		}
	}
}

func TestPredictMatchesDirectSystem(t *testing.T) {
	srv, ts, ds := freshServer(t, Config{DisableRecovery: true})
	sys := srv.system()
	for i := 0; i < 20; i++ {
		resp, data := postJSON(t, ts.URL+"/predict", map[string]any{"x": ds.TestX[i]})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("predict %d: status %d: %s", i, resp.StatusCode, data)
		}
		var out predictResponse
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatal(err)
		}
		if out.Prediction == nil {
			t.Fatalf("predict %d: no prediction in %s", i, data)
		}
		if want := sys.Predict(ds.TestX[i]); out.Prediction.Class != want {
			t.Errorf("predict %d: served class %d, direct %d", i, out.Prediction.Class, want)
		}
		if c := out.Prediction.Confidence; c <= 0 || c > 1 {
			t.Errorf("predict %d: confidence %v out of (0,1]", i, c)
		}
	}
}

func TestPredictBatchEndpoint(t *testing.T) {
	srv, ts, ds := freshServer(t, Config{DisableRecovery: true})
	sys := srv.system()
	n := 50
	resp, data := postJSON(t, ts.URL+"/predict", map[string]any{"xs": ds.TestX[:n]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch predict: status %d: %s", resp.StatusCode, data)
	}
	var out predictResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Predictions) != n {
		t.Fatalf("got %d predictions, want %d", len(out.Predictions), n)
	}
	for i, p := range out.Predictions {
		if want := sys.Predict(ds.TestX[i]); p.Class != want {
			t.Errorf("batch %d: served class %d, direct %d", i, p.Class, want)
		}
	}
}

func TestPredictRejectsBadInput(t *testing.T) {
	_, ts, ds := freshServer(t, Config{DisableRecovery: true})
	cases := []struct {
		name string
		body any
	}{
		{"empty body", map[string]any{}},
		{"wrong arity", map[string]any{"x": []float64{1, 2, 3}}},
		{"both x and xs", map[string]any{"x": ds.TestX[0], "xs": ds.TestX[:2]}},
	}
	for _, tc := range cases {
		resp, data := postJSON(t, ts.URL+"/predict", tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, resp.StatusCode, data)
		}
	}
	// Malformed JSON entirely.
	resp, err := http.Post(ts.URL+"/predict", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d, want 400", resp.StatusCode)
	}
	// Wrong-arity batch entry.
	resp2, data := postJSON(t, ts.URL+"/predict", map[string]any{"xs": [][]float64{{1, 2}}})
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("bad batch arity: status %d, want 400 (%s)", resp2.StatusCode, data)
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	srv, ts, ds := freshServer(t, Config{DisableRecovery: true})
	if err := srv.SetProbe(ds.TestX, ds.TestY); err != nil {
		t.Fatal(err)
	}
	before, ok := srv.ProbeNow()
	if !ok {
		t.Fatal("probe did not run")
	}

	// Checkpoint the healthy model over HTTP.
	resp, err := http.Get(ts.URL + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || err != nil {
		t.Fatalf("snapshot: status %d err %v", resp.StatusCode, err)
	}
	if len(snap) == 0 {
		t.Fatal("empty snapshot")
	}

	// Wreck the live model badly enough that accuracy collapses.
	aresp, adata := postJSON(t, ts.URL+"/attack", map[string]any{"kind": "random", "rate": 0.45, "seed": 5})
	if aresp.StatusCode != http.StatusOK {
		t.Fatalf("attack: status %d: %s", aresp.StatusCode, adata)
	}
	attacked, _ := srv.ProbeNow()
	if attacked >= before-0.05 {
		t.Fatalf("45%% attack barely moved accuracy: %.4f -> %.4f", before, attacked)
	}

	// Restore the checkpoint over HTTP; accuracy must return exactly.
	rresp, err := http.Post(ts.URL+"/restore", "application/octet-stream", bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("restore: status %d", rresp.StatusCode)
	}
	after, ok := srv.ProbeNow()
	if !ok {
		t.Fatal("probe lost after restore")
	}
	if after != before {
		t.Errorf("restore did not round-trip accuracy: before %.4f, after %.4f", before, after)
	}
}

func TestRestoreRejectsCorruptSnapshots(t *testing.T) {
	srv, ts, _ := freshServer(t, Config{DisableRecovery: true})
	resp, err := http.Get(ts.URL + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	snap, _ := io.ReadAll(resp.Body)
	resp.Body.Close()

	pre, _ := srv.ProbeNow() // 0, false — no probe set; just exercise
	_ = pre

	cases := []struct {
		name string
		body []byte
	}{
		{"empty", nil},
		{"garbage", []byte("not a snapshot at all, sorry")},
		{"truncated header", snap[:8]},
		{"truncated body", snap[:len(snap)/2]},
		{"bad magic", append([]byte{0xde, 0xad, 0xbe, 0xef}, snap[4:]...)},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/restore", "application/octet-stream", bytes.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}

	// The live model must have survived every rejected restore.
	var m Metrics
	getJSON(t, ts.URL+"/metrics", &m)
	if !m.Ready {
		t.Error("server lost its model after rejected restores")
	}
}

func TestHealthzAndTrainBootstrap(t *testing.T) {
	// Boot with no model at all.
	srv, err := New(nil, Config{DisableRecovery: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })

	if resp := getJSON(t, ts.URL+"/healthz", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz without model: status %d, want 503", resp.StatusCode)
	}
	ds, spec, _ := problem(t)
	if resp, data := postJSON(t, ts.URL+"/predict", map[string]any{"x": ds.TestX[0]}); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("predict without model: status %d, want 503 (%s)", resp.StatusCode, data)
	}

	// Train over HTTP, installing the test split as the probe.
	resp, data := postJSON(t, ts.URL+"/train", map[string]any{
		"x": ds.TrainX, "y": ds.TrainY, "classes": spec.Classes,
		"dimensions": 4096, "seed": 7,
		"probe_x": ds.TestX, "probe_y": ds.TestY,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("train: status %d: %s", resp.StatusCode, data)
	}

	if resp := getJSON(t, ts.URL+"/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after train: status %d", resp.StatusCode)
	}
	if resp, data := postJSON(t, ts.URL+"/predict", map[string]any{"x": ds.TestX[0]}); resp.StatusCode != http.StatusOK {
		t.Fatalf("predict after train: status %d (%s)", resp.StatusCode, data)
	}
	if acc, ok := srv.ProbeNow(); !ok || acc < 0.5 {
		t.Fatalf("trained-over-HTTP model probes at %.4f (ok=%v)", acc, ok)
	}
}

func TestTrainRejectsBadRequests(t *testing.T) {
	_, ts, ds := freshServer(t, Config{DisableRecovery: true})
	ones := make([]float64, 1000)
	for i := range ones {
		ones[i] = 1
	}
	cases := []struct {
		name string
		body any
	}{
		{"no data", map[string]any{"classes": 5}},
		{"length mismatch", map[string]any{"x": ds.TrainX[:3], "y": ds.TrainY[:2], "classes": 5}},
		{"one class", map[string]any{"x": ds.TrainX[:3], "y": ds.TrainY[:3], "classes": 1}},
		{"one level", map[string]any{"x": ds.TrainX[:3], "y": ds.TrainY[:3], "classes": 5, "levels": 1}},
		{"level memory over the cap", map[string]any{"x": ds.TrainX[:3], "y": ds.TrainY[:3], "classes": 5,
			"dimensions": 1024, "levels": 1 << 20}},
		// 8000 classes at D=10k: 320 MB of int32 training counters.
		{"training counters over the cap", map[string]any{"x": ds.TrainX[:3], "y": ds.TrainY[:3], "classes": 8000}},
		// 1000 features at D=2^20: 128 MiB of item memory.
		{"item memory over the cap", map[string]any{"x": [][]float64{make([]float64, 1000), ones},
			"y": []int{0, 1}, "classes": 2, "dimensions": 1 << 20}},
	}
	for _, tc := range cases {
		resp, data := postJSON(t, ts.URL+"/train", tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, resp.StatusCode, data)
		}
	}
}

// TestTrainProbeAdmission: /train checks its probe set against the
// system it built before installing anything, and SetProbe refuses a
// ragged set. A ragged probe would otherwise pass the first-row arity
// check and crash an encode worker on the next probe; a probe whose
// labels do not match its samples would be refused only after the new
// model replaced the old one.
func TestTrainProbeAdmission(t *testing.T) {
	srv, ts, ds := freshServer(t, Config{DisableRecovery: true})
	_, spec, _ := problem(t)
	before := srv.system()
	ragged := [][]float64{ds.TestX[0], ds.TestX[1][:3]}
	for _, tc := range []struct {
		name   string
		probeX [][]float64
		probeY []int
	}{
		{"ragged probe", ragged, ds.TestY[:2]},
		{"probe labels mismatch", ds.TestX[:3], ds.TestY[:1]},
	} {
		resp, data := postJSON(t, ts.URL+"/train", map[string]any{
			"x": ds.TrainX, "y": ds.TrainY, "classes": spec.Classes,
			"dimensions": 1024, "seed": 3,
			"probe_x": tc.probeX, "probe_y": tc.probeY,
		})
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, resp.StatusCode, data)
		}
		if srv.system() != before {
			t.Errorf("%s: the refused /train replaced the model", tc.name)
		}
		srv.ProbeNow()
	}
	if err := srv.SetProbe(ragged, ds.TestY[:2]); !errors.Is(err, ErrBadInput) {
		t.Fatalf("SetProbe(ragged) = %v, want ErrBadInput", err)
	}
	srv.ProbeNow()

	// An online /train with a mismatched probe refines nothing: the
	// snapshot is byte-identical before and after.
	snapshot := func() []byte {
		resp, err := http.Get(ts.URL + "/snapshot")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	want := snapshot()
	flipped := make([]int, len(ds.TrainY))
	for i, y := range ds.TrainY {
		flipped[i] = (y + 1) % spec.Classes
	}
	resp, data := postJSON(t, ts.URL+"/train", map[string]any{
		"online": true, "x": ds.TrainX, "y": flipped,
		"probe_x": ds.TestX[:3], "probe_y": ds.TestY[:1],
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("online train with mismatched probe: status %d, want 400 (%s)", resp.StatusCode, data)
	}
	if !bytes.Equal(snapshot(), want) {
		t.Fatal("the refused online /train changed the model")
	}
}

func TestAttackEndpointValidation(t *testing.T) {
	_, ts, _ := freshServer(t, Config{DisableRecovery: true})
	for _, body := range []map[string]any{
		{"kind": "alien", "rate": 0.1},
		{"kind": "random", "rate": 1.5},
		{"kind": "random", "rate": -0.1},
	} {
		resp, data := postJSON(t, ts.URL+"/attack", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("attack %v: status %d, want 400 (%s)", body, resp.StatusCode, data)
		}
	}
	resp, data := postJSON(t, ts.URL+"/attack", map[string]any{"kind": "targeted", "rate": 0.05, "seed": 9})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid attack: status %d (%s)", resp.StatusCode, data)
	}
	var out struct {
		BitsFlipped int `json:"bits_flipped"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.BitsFlipped <= 0 {
		t.Errorf("attack flipped %d bits, want > 0", out.BitsFlipped)
	}
}

func TestMetricsShape(t *testing.T) {
	srv, ts, ds := freshServer(t, Config{BatchSize: 8, BatchWindow: time.Millisecond})
	if err := srv.SetProbe(ds.TestX[:50], ds.TestY[:50]); err != nil {
		t.Fatal(err)
	}
	if _, ok := srv.ProbeNow(); !ok {
		t.Fatal("probe did not run")
	}
	if _, data := postJSON(t, ts.URL+"/predict", map[string]any{"xs": ds.TestX[:30]}); len(data) == 0 {
		t.Fatal("empty predict response")
	}
	postJSON(t, ts.URL+"/attack", map[string]any{"kind": "burst", "span_frac": 0.02, "flip_prob": 0.5, "seed": 3})

	var m Metrics
	getJSON(t, ts.URL+"/metrics", &m)
	switch {
	case !m.Ready || m.Model == nil:
		t.Error("metrics: not ready / no model info")
	case m.Model.Features != len(ds.TestX[0]):
		t.Errorf("metrics: features %d, want %d", m.Model.Features, len(ds.TestX[0]))
	}
	if m.Predictions < 30 {
		t.Errorf("metrics: %d predictions recorded, want >= 30", m.Predictions)
	}
	if m.Batches < 1 || m.MeanBatchSize <= 0 {
		t.Errorf("metrics: batches=%d meanBatch=%.2f", m.Batches, m.MeanBatchSize)
	}
	if m.MeanConfidence <= 0 || m.MeanConfidence > 1 {
		t.Errorf("metrics: mean confidence %v out of (0,1]", m.MeanConfidence)
	}
	if m.Attacks != 1 || m.AttackBits <= 0 {
		t.Errorf("metrics: attacks=%d bits=%d", m.Attacks, m.AttackBits)
	}
	if !m.Recovery.Enabled {
		t.Error("metrics: recovery reported disabled")
	}
	if m.Probe.Runs < 1 || m.Probe.Accuracy <= 0 {
		t.Errorf("metrics: probe runs=%d acc=%v", m.Probe.Runs, m.Probe.Accuracy)
	}
	if m.UptimeSeconds <= 0 {
		t.Error("metrics: zero uptime")
	}
}

func TestRecoveryObservesTrustedQueries(t *testing.T) {
	_, ts, ds := freshServer(t, Config{BatchSize: 16, BatchWindow: time.Millisecond})
	// Serve enough traffic that some queries clear the T_C=0.95 gate.
	postJSON(t, ts.URL+"/predict", map[string]any{"xs": ds.TestX})

	deadline := time.Now().Add(5 * time.Second)
	for {
		var m Metrics
		getJSON(t, ts.URL+"/metrics", &m)
		if m.Trusted == 0 {
			t.Fatalf("no trusted queries in %d predictions — gate or confidence broken", m.Predictions)
		}
		// The background loop must eventually observe every trusted
		// query (queue drains to zero and stats catch up).
		if m.Recovery.Queued == 0 && int64(m.Recovery.Stats.Queries)+m.Recovery.Dropped >= m.Trusted {
			if m.Recovery.Stats.Trusted == 0 {
				t.Fatalf("recovery saw %d queries but trusted none; serving gate and recovery gate disagree", m.Recovery.Stats.Queries)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("recovery loop never caught up: %+v", m.Recovery)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestGracefulShutdownDrains(t *testing.T) {
	ds, spec, _ := problem(t)
	sys, err := core.Train(ds.TrainX, ds.TrainY, spec.Classes, core.Config{Dimensions: 4096, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(sys, Config{Shards: 2, BatchSize: 8, BatchWindow: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}

	// Fire predictions from many goroutines while Close lands in the
	// middle: every call must get either an answer or ErrClosed —
	// never hang, never panic.
	var wg sync.WaitGroup
	errs := make(chan error, 200)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				_, err := srv.Predict(ds.TestX[(g*25+i)%len(ds.TestX)])
				if err != nil && err != ErrClosed {
					errs <- err
				}
			}
		}(g)
	}
	time.Sleep(time.Millisecond)
	srv.Close()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("in-flight predict failed with %v", err)
	}

	// After close: ErrClosed, not a hang.
	if _, err := srv.Predict(ds.TestX[0]); err != ErrClosed {
		t.Errorf("predict after close: %v, want ErrClosed", err)
	}
	srv.Close() // idempotent
}
