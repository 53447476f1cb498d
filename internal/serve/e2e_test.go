package serve

import (
	"encoding/json"
	"io"
	"math"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
)

// e2eProblem is the calibrated self-heal scenario: PAMAP at D=8000
// trains to ~0.97 clean accuracy, and per-class chunk-scale burst
// faults produce exactly the localized damage the recovery loop's
// chunk detection targets (mirroring examples/activity).
func e2eProblem(t *testing.T) (*dataset.Dataset, dataset.Spec, *core.System) {
	t.Helper()
	spec, ok := dataset.ByName("PAMAP")
	if !ok {
		t.Fatal("no PAMAP spec")
	}
	spec.TrainSize, spec.TestSize = 800, 400
	ds, err := dataset.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.Train(ds.TrainX, ds.TrainY, spec.Classes, core.Config{
		Dimensions: 8000,
		Seed:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds, spec, sys
}

// e2eServer wraps a freshly trained e2e system.
func e2eServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *dataset.Dataset) {
	t.Helper()
	ds, _, sys := e2eProblem(t)
	srv, err := New(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	if err := srv.SetProbe(ds.TestX, ds.TestY); err != nil {
		t.Fatal(err)
	}
	return srv, ts, ds
}

// metricsNow fetches /metrics.
func metricsNow(t *testing.T, ts *httptest.Server) Metrics {
	t.Helper()
	var m Metrics
	getJSON(t, ts.URL+"/metrics", &m)
	return m
}

// driveTraffic streams live queries through /predict in batches and
// waits for the background recovery loop to drain its backlog, so the
// self-healing effect of the traffic is fully applied on return.
func driveTraffic(t *testing.T, srv *Server, ts *httptest.Server, xs [][]float64) {
	t.Helper()
	const chunk = 100
	for lo := 0; lo < len(xs); lo += chunk {
		hi := min(lo+chunk, len(xs))
		resp, data := postJSON(t, ts.URL+"/predict", map[string]any{"xs": xs[lo:hi]})
		if resp.StatusCode != 200 {
			t.Fatalf("live traffic rejected: status %d: %s", resp.StatusCode, data)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(srv.recCh) > 0 {
		if time.Now().After(deadline) {
			t.Fatal("recovery backlog never drained")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The loop may still be inside its final Observe; a round-trip
	// through the replica's lock guarantees it finished before we probe.
	_ = srv.live.Load().rep.Save(io.Discard, math.NaN(), nil)
}

// TestE2EServeAttackRecoverAcceptance is the acceptance-criteria
// drill verbatim: a 10% targeted bit-flip attack via /attack, live
// high-confidence /predict traffic feeding the recovery loop, and the
// /metrics accuracy probe back within 1 point of the pre-attack
// reading — without restart or restore.
//
// Context (measured in EXPERIMENTS.md): uniform 10% attacks on this
// operating point cost only fractions of a point and leave chunk
// contests intact, so this drill is mostly a liveness check of the
// full pipeline; TestE2EServeBurstSelfHealing below is the scenario
// where recovery visibly earns its keep.
func TestE2EServeAttackRecoverAcceptance(t *testing.T) {
	srv, ts, ds := e2eServer(t, Config{BatchSize: 32, BatchWindow: time.Millisecond})

	before, ok := srv.ProbeNow()
	if !ok {
		t.Fatal("pre-attack probe did not run")
	}
	if before < 0.9 {
		t.Fatalf("clean model probes at %.4f; scenario calibration broken", before)
	}

	resp, data := postJSON(t, ts.URL+"/attack", map[string]any{
		"kind": "targeted", "rate": 0.10, "seed": 99,
	})
	if resp.StatusCode != 200 {
		t.Fatalf("attack drill: status %d: %s", resp.StatusCode, data)
	}
	var drill struct {
		BitsFlipped int `json:"bits_flipped"`
	}
	if err := json.Unmarshal(data, &drill); err != nil {
		t.Fatal(err)
	}
	if want := int(0.10 * 8000 * 5); drill.BitsFlipped != want {
		t.Fatalf("drill flipped %d bits, want %d (10%% of the deployed model)", drill.BitsFlipped, want)
	}

	// Live traffic: the test stream twice over, as unlabeled queries.
	driveTraffic(t, srv, ts, ds.TestX)
	driveTraffic(t, srv, ts, ds.TestX)

	if _, ok := srv.ProbeNow(); !ok {
		t.Fatal("post-recovery probe did not run")
	}
	m := metricsNow(t, ts)
	if m.Probe.Runs < 2 {
		t.Fatalf("probe ran %d times, want >= 2", m.Probe.Runs)
	}
	after := m.Probe.Accuracy
	if diff := (before - after) * 100; diff > 1.0 {
		t.Errorf("accuracy did not return within 1 point: before %.4f, after %.4f (%.2f points down)",
			before, after, diff)
	}
	if m.Recovery.Stats.Trusted == 0 {
		t.Error("no live queries cleared the recovery gate; loop never engaged")
	}
	if m.Attacks != 1 {
		t.Errorf("metrics recorded %d attacks, want 1", m.Attacks)
	}
}

// TestE2EServeBurstSelfHealing demonstrates the recovery loop doing
// real work online: repeated row-hammer-style burst drills against a
// serving process, interleaved with live query traffic. A twin server
// with recovery disabled takes the same drills and the same traffic;
// the protected server must end substantially healthier.
//
// The numbers mirror examples/activity (clean 0.970; after 12 bursts:
// unprotected ~0.880, protected ~0.943).
func TestE2EServeBurstSelfHealing(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-epoch burst drill")
	}
	protected, pts, ds := e2eServer(t, Config{BatchSize: 32, BatchWindow: time.Millisecond})
	unprotected, uts, _ := e2eServer(t, Config{BatchSize: 32, BatchWindow: time.Millisecond, DisableRecovery: true})

	clean, ok := protected.ProbeNow()
	if !ok {
		t.Fatal("clean probe did not run")
	}

	const epochs = 12
	const queriesPerEpoch = 200
	for epoch := 0; epoch < epochs; epoch++ {
		// One chunk-scale burst per epoch, identical on both servers
		// (same seed → same span, same flips).
		body := map[string]any{
			"kind": "burst", "span_frac": 0.02, "flip_prob": 0.45,
			"seed": uint64(1000 + epoch),
		}
		for _, url := range []string{pts.URL, uts.URL} {
			resp, data := postJSON(t, url+"/attack", body)
			if resp.StatusCode != 200 {
				t.Fatalf("epoch %d burst: status %d: %s", epoch, resp.StatusCode, data)
			}
		}
		// The same live traffic hits both; only the protected server
		// learns from it.
		lo := (epoch * queriesPerEpoch) % len(ds.TestX)
		hi := min(lo+queriesPerEpoch, len(ds.TestX))
		driveTraffic(t, protected, pts, ds.TestX[lo:hi])
		driveTraffic(t, unprotected, uts, ds.TestX[lo:hi])
	}

	pAcc, ok1 := protected.ProbeNow()
	uAcc, ok2 := unprotected.ProbeNow()
	if !ok1 || !ok2 {
		t.Fatal("final probes did not run")
	}
	t.Logf("clean %.4f | after %d bursts: protected %.4f, unprotected %.4f",
		clean, epochs, pAcc, uAcc)

	// The drills must actually hurt an undefended server...
	if dip := (clean - uAcc) * 100; dip < 2.0 {
		t.Errorf("unprotected server only dipped %.2f points; drills too weak to demonstrate anything", dip)
	}
	// ...and the recovery loop must claw most of it back, online.
	if lead := (pAcc - uAcc) * 100; lead < 1.5 {
		t.Errorf("protected server leads by only %.2f points; recovery not demonstrably helping", lead)
	}
	// Margin is loose (batch flush order across shards perturbs the
	// substitution RNG stream): protected runs land ~1.5–2 points
	// below clean versus ~6.5 for the unprotected twin.
	if gap := (clean - pAcc) * 100; gap > 3.0 {
		t.Errorf("protected server ended %.2f points below clean, want <= 3.0", gap)
	}

	m := metricsNow(t, pts)
	if m.Recovery.Stats.BitsSubstituted == 0 {
		t.Error("protected server substituted no bits; recovery never fired")
	}
	if m.Recovery.Stats.FaultyChunks == 0 {
		t.Error("protected server detected no faulty chunks")
	}
	if m.Attacks != epochs {
		t.Errorf("protected server recorded %d attacks, want %d", m.Attacks, epochs)
	}
}
