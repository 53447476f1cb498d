package cluster_test

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/serve"
)

// gate wraps a node handler so tests can knock the node over, slow it
// down, or make its health endpoint flap — process-death stand-ins
// that keep everything in one test binary.
type gate struct {
	inner http.Handler
	// down makes every request fail with 500 (retryable, so the
	// coordinator's ladder sees "unreachable", not "bad request").
	down atomic.Bool
	// delay stalls /node/score to simulate a slow node.
	delay atomic.Int64 // nanoseconds
	// flap makes /healthz alternate ok/fail per call while other
	// routes stay down.
	flap         atomic.Bool
	healthzCalls atomic.Int64
}

func (g *gate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if g.flap.Load() && r.URL.Path == "/healthz" {
		if g.healthzCalls.Add(1)%2 == 1 {
			g.inner.ServeHTTP(w, r)
			return
		}
		http.Error(w, "flap", http.StatusInternalServerError)
		return
	}
	if g.down.Load() {
		http.Error(w, "down", http.StatusInternalServerError)
		return
	}
	if d := g.delay.Load(); d > 0 && r.URL.Path == "/node/score" {
		time.Sleep(time.Duration(d))
	}
	g.inner.ServeHTTP(w, r)
}

// startGatedNodes is startNodes with a gate in front of each node.
func startGatedNodes(t testing.TB, snap []byte, n int) ([]string, []*gate) {
	t.Helper()
	urls := make([]string, n)
	gates := make([]*gate, n)
	for i := 0; i < n; i++ {
		nodeSys, err := core.Load(bytes.NewReader(snap))
		if err != nil {
			t.Fatal(err)
		}
		srv, err := serve.New(nodeSys, serve.Config{NodeAPI: true, DisableRecovery: true})
		if err != nil {
			t.Fatal(err)
		}
		g := &gate{inner: srv.Handler()}
		hs := httptest.NewServer(g)
		t.Cleanup(func() { hs.Close(); srv.Close() })
		urls[i], gates[i] = hs.URL, g
	}
	return urls, gates
}

// expected scores the batch on the reference system — with every node
// loaded from the same snapshot and undamaged, any quorum's answer
// must match the single model's.
func expected(sys *core.System, xs [][]float64, temp float64) []int {
	encoded := sys.EncodeAllParallel(xs, 0)
	m := sys.Model()
	out := make([]int, len(encoded))
	for i, q := range encoded {
		out[i], _ = m.PredictWithConfidence(q, temp)
	}
	return out
}

func assertClasses(t *testing.T, step string, got []int, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d answers, want %d", step, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: query %d answered %d, want %d", step, i, got[i], want[i])
		}
	}
}

// TestSlowNodeBoundedByDeadline pins the per-node timeout: a node
// stalling its score handler far past the deadline must cost the
// batch at most the deadline (plus retry budget), not the stall.
func TestSlowNodeBoundedByDeadline(t *testing.T) {
	ds, sys := problem(t)
	snap := snapshotOf(t, sys)
	urls, gates := startGatedNodes(t, snap, 3)
	co := newCoordinator(t, cluster.Config{
		Nodes:         urls,
		Quorum:        3, // every batch must touch the slow node
		Timeout:       200 * time.Millisecond,
		Retries:       -1,
		FailThreshold: 100, // keep the node in rotation; this test is about latency
	})

	gates[2].delay.Store(int64(3 * time.Second))
	xs := ds.TestX[:8]
	want := expected(sys, xs, co.Temperature())

	start := time.Now()
	classes, _, err := co.ScoreBatch(xs, co.Temperature())
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	assertClasses(t, "slow-node batch", classes, want)
	if elapsed > 1500*time.Millisecond {
		t.Fatalf("batch took %v; a 200ms deadline must not stretch to the node's 3s stall", elapsed)
	}
	if st := co.Status(); st.Degraded == 0 {
		t.Fatal("slow member timed out but the batch was not counted degraded")
	}
}

// TestKilledNodeDownAndRejoin walks the full failure ladder: a dead
// node keeps answering batches degraded, FailThreshold consecutive
// failures park it Down, and RejoinProbes consecutive healthy sweeps
// bring it back until a clean sweep re-arms the fast path.
func TestKilledNodeDownAndRejoin(t *testing.T) {
	ds, sys := problem(t)
	snap := snapshotOf(t, sys)
	urls, gates := startGatedNodes(t, snap, 3)
	co := newCoordinator(t, cluster.Config{
		Nodes:         urls,
		Quorum:        3,
		Timeout:       300 * time.Millisecond,
		Retries:       -1,
		Backoff:       time.Millisecond,
		FailThreshold: 2,
		RejoinProbes:  2,
	})
	temp := co.Temperature()
	xs := ds.TestX[:8]
	want := expected(sys, xs, temp)

	classes, _, err := co.ScoreBatch(xs, temp)
	if err != nil {
		t.Fatal(err)
	}
	assertClasses(t, "pristine", classes, want)

	// Kill node 1. Every subsequent batch still answers correctly from
	// the survivors; after FailThreshold failed exchanges the ladder
	// parks the node Down and stops asking it at all.
	gates[1].down.Store(true)
	for round := 0; round < 4; round++ {
		classes, _, err := co.ScoreBatch(xs, temp)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		assertClasses(t, "degraded round", classes, want)
	}
	st := co.Status()
	if st.Nodes[1].State != "down" {
		t.Fatalf("node 1 state %q after repeated failures, want down", st.Nodes[1].State)
	}
	if st.Degraded == 0 {
		t.Fatal("batches with a dead member were not counted degraded")
	}
	servedBefore := co.Status().Nodes[1].Served

	// Down means out of rotation: more traffic must not touch it.
	for round := 0; round < 3; round++ {
		if _, _, err := co.ScoreBatch(xs, temp); err != nil {
			t.Fatal(err)
		}
	}
	if got := co.Status().Nodes[1].Served; got != servedBefore {
		t.Fatalf("down node served %d more queries", got-servedBefore)
	}

	// Revive it. One healthy probe is not enough (RejoinProbes 2);
	// the second sweep rejoins it, and with identical models that same
	// sweep proves the cluster clean and re-arms the fast path.
	gates[1].down.Store(false)
	if _, err := co.SweepNow(); err != nil {
		t.Fatal(err)
	}
	if st := co.Status(); st.Nodes[1].State != "down" {
		t.Fatalf("node rejoined after one probe, want %d", 2)
	}
	rep, err := co.SweepNow()
	if err != nil {
		t.Fatal(err)
	}
	st = co.Status()
	if st.Nodes[1].State != "active" {
		t.Fatalf("node 1 state %q after two healthy probes, want active", st.Nodes[1].State)
	}
	if st.Nodes[1].Rejoins != 1 {
		t.Fatalf("rejoins = %d, want 1", st.Nodes[1].Rejoins)
	}
	if !rep.Healthy || !co.Healthy() {
		t.Fatalf("rejoin sweep report healthy=%v, coordinator healthy=%v; want true", rep.Healthy, co.Healthy())
	}
	classes, _, err = co.ScoreBatch(xs, temp)
	if err != nil {
		t.Fatal(err)
	}
	assertClasses(t, "healed", classes, want)
}

// TestFlappingNodeNeverThrashes pins the anti-thrash property: a node
// whose health endpoint answers every other probe never accumulates
// RejoinProbes consecutive successes and stays out of rotation.
func TestFlappingNodeNeverThrashes(t *testing.T) {
	ds, sys := problem(t)
	snap := snapshotOf(t, sys)
	urls, gates := startGatedNodes(t, snap, 3)
	co := newCoordinator(t, cluster.Config{
		Nodes:         urls,
		Quorum:        3,
		Timeout:       300 * time.Millisecond,
		Retries:       -1,
		Backoff:       time.Millisecond,
		FailThreshold: 1,
		RejoinProbes:  2,
	})
	temp := co.Temperature()
	xs := ds.TestX[:4]

	gates[0].down.Store(true)
	if _, _, err := co.ScoreBatch(xs, temp); err != nil {
		t.Fatal(err)
	}
	if st := co.Status(); st.Nodes[0].State != "down" {
		t.Fatalf("node 0 state %q, want down", st.Nodes[0].State)
	}

	// Healthz now alternates ok/fail; everything else stays dead.
	gates[0].flap.Store(true)
	for sweep := 0; sweep < 6; sweep++ {
		if _, err := co.SweepNow(); err != nil {
			t.Fatal(err)
		}
	}
	st := co.Status()
	if st.Nodes[0].State != "down" {
		t.Fatalf("flapping node reached state %q, want down", st.Nodes[0].State)
	}
	if st.Nodes[0].Rejoins != 0 {
		t.Fatalf("flapping node rejoined %d times, want 0", st.Nodes[0].Rejoins)
	}
}

// TestCoordinatorHandlerRejects pins the coordinator API's 400 wall.
func TestCoordinatorHandlerRejects(t *testing.T) {
	ds, sys := problem(t)
	snap := snapshotOf(t, sys)
	urls := startNodes(t, snap, 3)
	co := newCoordinator(t, cluster.Config{Nodes: urls, Quorum: 2, Retries: -1})
	hs := httptest.NewServer(co.Handler())
	defer hs.Close()

	post := func(path, body string) int {
		t.Helper()
		resp, err := http.Post(hs.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	cases := []struct {
		name, path, body string
	}{
		{"attack without node", "/attack", `{"kind":"random","rate":0.1}`},
		{"attack node out of range", "/attack", `{"node":7,"kind":"random","rate":0.1}`},
		{"attack negative node", "/attack", `{"node":-1,"kind":"random","rate":0.1}`},
		{"attack unknown kind", "/attack", `{"node":0,"kind":"emp"}`},
		{"predict empty", "/predict", `{}`},
		{"predict both x and xs", "/predict", `{"x":[1],"xs":[[1]]}`},
		{"predict wrong arity", "/predict", `{"x":[1,2,3]}`},
		{"predict malformed", "/predict", `{`},
	}
	for _, tc := range cases {
		if got := post(tc.path, tc.body); got != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, got)
		}
	}

	// The happy paths still work after all that rejection.
	body, _ := json.Marshal(map[string]any{"x": ds.TestX[0]})
	if got := post("/predict", string(body)); got != http.StatusOK {
		t.Fatalf("valid predict: status %d, want 200", got)
	}
	if got := post("/sweep", ""); got != http.StatusOK {
		t.Fatalf("sweep: status %d, want 200", got)
	}
	resp, err := http.Get(hs.URL + "/cluster")
	if err != nil {
		t.Fatal(err)
	}
	var st cluster.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(st.Nodes) != 3 || st.Quorum != 2 {
		t.Fatalf("cluster status: %+v", st)
	}
}

// TestNewRejectsBadConfig pins constructor validation.
func TestNewRejectsBadConfig(t *testing.T) {
	cases := []cluster.Config{
		{},
		{Nodes: []string{"http://a", "http://b"}, Quorum: 3},
		{Nodes: []string{"http://a"}, Quorum: -1},
		{Nodes: []string{"not a url"}},
		{Nodes: []string{""}},
		{Nodes: []string{"http://a"}, AntiEntropy: fleet.AntiEntropyConfig{QuarantineDivergence: math.NaN()}},
		{Nodes: []string{"http://a"}, AntiEntropy: fleet.AntiEntropyConfig{QuarantineDivergence: math.Inf(1)}},
		{Nodes: []string{"http://a"}, AntiEntropy: fleet.AntiEntropyConfig{MinReseedAgreement: math.NaN()}},
		{Nodes: []string{"http://a"}, AntiEntropy: fleet.AntiEntropyConfig{MinReseedAgreement: math.Inf(-1)}},
	}
	for i, cfg := range cases {
		if _, err := cluster.New(cfg); err == nil {
			t.Errorf("case %d: config %+v accepted, want error", i, cfg)
		}
	}
}
