package serve

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/memsim"
	"repro/internal/recovery"
	"repro/internal/substrate"
)

// manualDrive parks every background timer far in the future so the
// test drives scrub ticks and watchdog windows deterministically via
// ScrubNow / WatchdogNow.
const manualDrive = 24 * time.Hour

// decaySubstrate is the refresh-relaxed clustered-decay scenario of
// the twin tests: 15% of cells are retention-weak with a wide
// log-normal spread, so every simulated second expires a fresh slice
// of cells — a sustained fault flux, not a one-shot drill. (Uniform
// decay barely dents a holographic representation; ClusterRun is what
// makes the flux bite: chunk-scale wordline-correlated runs, each one
// a row of cells sharing a retention time that fails together — the
// localized damage shape chunk detection is sensitive to.)
func decaySubstrate() *substrate.Config {
	return &substrate.Config{
		Kind: "dram",
		Seed: 17,
		Retention: memsim.DRAMRetention{Populations: []memsim.RetentionPopulation{
			{Fraction: 0.10, MuLogMs: math.Log(4000), SigmaLog: 0.8},
		}},
		// Refresh-relaxed past the test horizon: cells leak once, when
		// their retention expires, and stay leaked until rewritten.
		RefreshIntervalMs: 1e12,
		ClusterRun:        400,
	}
}

// TestE2ESubstrateDecayTwinAbsorbable mounts identical twins on
// identical decaying DRAM. The protected server's recovery loop must
// hold held-out accuracy within 2 points of clean across >= 5 watchdog
// windows of sustained decay, while the unprotected twin degrades
// monotonically — recovery absorbing a fault flux it can outpace.
func TestE2ESubstrateDecayTwinAbsorbable(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-window decay drill")
	}
	mk := func(disable bool) (*Server, *httptest.Server) {
		srv, ts, _ := func() (*Server, *httptest.Server, *dataset.Dataset) {
			ds, _, sys := e2eProblem(t)
			// Ensemble substitution (majority of the last 16 trusted
			// queries) shrinks the rewrite residue ~4x — under a
			// *sustained* flux the equilibrium accuracy floor is set by
			// that residue, so the steady-state scenario is where the
			// extension earns its keep.
			rcfg := recovery.DefaultConfig()
			rcfg.EnsembleWindow = 16
			srv, err := New(sys, Config{
				BatchSize: 32, BatchWindow: time.Millisecond,
				DisableRecovery: disable,
				Recovery:        rcfg,
				Substrate:       decaySubstrate(),
				ScrubTick:       manualDrive,
				Watchdog:        WatchdogConfig{AccuracyDrop: 0.03},
			})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv.Handler())
			t.Cleanup(func() { ts.Close(); srv.Close() })
			if err := srv.SetProbe(ds.TestX, ds.TestY); err != nil {
				t.Fatal(err)
			}
			return srv, ts, ds
		}()
		return srv, ts
	}
	protected, pts := mk(false)
	unprotected, uts := mk(true)
	ds, _, _ := e2eProblem(t)

	clean, ok := protected.ProbeNow()
	if !ok {
		t.Fatal("clean probe did not run")
	}
	// Window 0: checkpoint the healthy model before any decay.
	if rep := protected.WatchdogNow(); !rep.Checkpointed {
		t.Fatalf("healthy window did not checkpoint: %+v", rep)
	}

	const windows = 6
	const queriesPerWindow = 400
	lastU := clean + 1
	for w := 0; w < windows; w++ {
		// One simulated second of decay on each twin: a fresh slice of
		// weak cells expires.
		if _, err := protected.ScrubNow(time.Second); err != nil {
			t.Fatal(err)
		}
		if _, err := unprotected.ScrubNow(time.Second); err != nil {
			t.Fatal(err)
		}
		// The same live traffic hits both; only the protected server
		// learns from it.
		lo := (w * queriesPerWindow) % len(ds.TestX)
		hi := min(lo+queriesPerWindow, len(ds.TestX))
		driveTraffic(t, protected, pts, ds.TestX[lo:hi])
		driveTraffic(t, unprotected, uts, ds.TestX[lo:hi])

		rep := protected.WatchdogNow()
		if !rep.ProbeOK {
			t.Fatalf("window %d: probe did not run", w)
		}
		if gap := (clean - rep.ProbeAccuracy) * 100; gap > 2.0 {
			t.Errorf("window %d: protected server %.2f points below clean (%.4f vs %.4f), want <= 2",
				w, gap, rep.ProbeAccuracy, clean)
		}
		if rep.Tier != 0 {
			t.Errorf("window %d: watchdog escalated under an absorbable flux: %+v", w, rep)
		}

		uAcc, ok := unprotected.ProbeNow()
		if !ok {
			t.Fatalf("window %d: unprotected probe did not run", w)
		}
		// Unrepaired decay only accumulates: accuracy must not climb
		// (probe noise allowance of half a point).
		if uAcc > lastU+0.005 {
			t.Errorf("window %d: unprotected accuracy rose %.4f -> %.4f under pure decay", w, lastU, uAcc)
		}
		lastU = uAcc
		t.Logf("window %d: protected %.4f, unprotected %.4f (clean %.4f)", w, rep.ProbeAccuracy, uAcc, clean)
	}

	// The flux must be real: the undefended twin ends materially hurt,
	// and the recovery loop must be visibly ahead of it.
	if drop := (clean - lastU) * 100; drop < 1.0 {
		t.Errorf("unprotected twin only lost %.2f points; decay too weak to demonstrate anything", drop)
	}
	pAcc, _ := protected.ProbeNow()
	if pAcc < lastU {
		t.Errorf("protected server (%.4f) ended behind the unprotected twin (%.4f)", pAcc, lastU)
	}

	m := metricsNow(t, pts)
	if m.Substrate.Kind != "dram" || m.Substrate.Scrubs != windows {
		t.Errorf("substrate metrics: kind=%q scrubs=%d, want dram/%d", m.Substrate.Kind, m.Substrate.Scrubs, windows)
	}
	if m.Substrate.BitsDecayed == 0 || m.Substrate.Process.BitsFlipped != m.Substrate.BitsDecayed {
		t.Errorf("substrate metrics: server counted %d decayed bits, process %d", m.Substrate.BitsDecayed, m.Substrate.Process.BitsFlipped)
	}
	if m.Watchdog.Trips != 0 || m.Watchdog.Rollbacks != 0 {
		t.Errorf("watchdog acted under an absorbable flux: %+v", m.Watchdog)
	}
	if m.Watchdog.Checkpoints == 0 || m.Watchdog.CheckpointAccuracy < clean-0.02 {
		t.Errorf("no healthy checkpoint held: %+v", m.Watchdog)
	}
	if m.Recovery.Stats.BitsSubstituted == 0 {
		t.Error("protected server substituted no bits; recovery never engaged the decay")
	}
}

// TestE2EWatchdogEscalatesThenRollsBack runs the unabsorbable case: a
// sustained targeted campaign flips far more bits per window than the
// recovery loop can heal from the available traffic. The watchdog must
// walk its full tier ladder — trip and escalate the substitution rate
// after tripWindows unhealthy windows, then roll back to the verified
// checkpoint after tripWindows more — and the rollback must restore
// held-out accuracy to exactly the checkpoint's stamped value.
func TestE2EWatchdogEscalatesThenRollsBack(t *testing.T) {
	ds, _, sys := e2eProblem(t)
	srv, err := New(sys, Config{
		BatchSize: 32, BatchWindow: time.Millisecond,
		// 35% of the image per step: far beyond what recovery can heal
		// from a hundred queries — uniform flips this dense collapse
		// even a holographic representation.
		Substrate: &substrate.Config{
			Kind:        "adversarial",
			Seed:        23,
			RatePerStep: 0.35,
			StepEvery:   time.Second,
		},
		ScrubTick: manualDrive,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	if err := srv.SetProbe(ds.TestX, ds.TestY); err != nil {
		t.Fatal(err)
	}

	// Healthy window: verify and checkpoint.
	rep := srv.WatchdogNow()
	if !rep.Checkpointed || rep.Tier != 0 {
		t.Fatalf("healthy window: %+v", rep)
	}
	stamped := rep.ProbeAccuracy
	baseRate := srv.cfg.Recovery.SubstitutionRate
	if baseRate == 0 {
		baseRate = 0.25 // recovery.DefaultConfig()
	}

	// Each window: one campaign step (5% targeted = 2000 bits) against
	// 100 queries of traffic — recovery cannot keep up.
	window := func() WatchdogReport {
		if _, err := srv.ScrubNow(time.Second); err != nil {
			t.Fatal(err)
		}
		driveTraffic(t, srv, ts, ds.TestX[:100])
		return srv.WatchdogNow()
	}

	r1, r2 := window(), window()
	if !r1.Unhealthy || !r2.Unhealthy {
		t.Fatalf("campaign windows not flagged unhealthy: %+v / %+v", r1, r2)
	}
	if !r2.Escalated || r2.Tier != 1 {
		t.Fatalf("watchdog did not escalate after %d unhealthy windows: %+v", 2, r2)
	}
	rate := srv.live.Load().rep.Recoverer().SubstitutionRate()
	if rate <= baseRate {
		t.Fatalf("escalation did not raise the substitution rate: %.3f <= %.3f", rate, baseRate)
	}

	r3, r4 := window(), window()
	if !r4.RolledBack {
		t.Fatalf("watchdog did not roll back after sustained degradation: %+v / %+v", r3, r4)
	}
	after, ok := srv.ProbeNow()
	if !ok {
		t.Fatal("post-rollback probe did not run")
	}
	if after != stamped {
		t.Errorf("rollback restored accuracy %.4f, want the checkpoint's stamped %.4f", after, stamped)
	}

	m := metricsNow(t, ts)
	if m.Watchdog.Trips != 1 || m.Watchdog.Rollbacks != 1 {
		t.Errorf("watchdog history: trips=%d rollbacks=%d, want 1/1", m.Watchdog.Trips, m.Watchdog.Rollbacks)
	}
	if m.Watchdog.Tier != 1 {
		t.Errorf("posture relaxed immediately after rollback: tier %d, want 1 (still under attack)", m.Watchdog.Tier)
	}
	if m.Substrate.Kind != "adversarial" || m.Substrate.Process.BitsFlipped == 0 {
		t.Errorf("substrate metrics: %+v", m.Substrate)
	}
}

// TestRestoreVerifiesStampAndDrainState covers the /restore error
// paths the verified-checkpoint format added: CRC-sealed-but-
// inconsistent payloads, accuracy stamps below the checkpoint floor,
// and restores racing shutdown.
func TestRestoreVerifiesStampAndDrainState(t *testing.T) {
	srv, ts, ds := freshServer(t, Config{DisableRecovery: true})

	resp, err := http.Get(ts.URL + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	snap, _ := io.ReadAll(resp.Body)
	resp.Body.Close()

	// A truncated payload resealed with a correct CRC: the checksum
	// passes but the deployed-vector section is short — the parser,
	// not the CRC, must reject it.
	cut := snap[:len(snap)-4-64]
	reseal := make([]byte, len(cut)+4)
	copy(reseal, cut)
	binary.LittleEndian.PutUint32(reseal[len(cut):], crc32.ChecksumIEEE(cut))
	r1, err := http.Post(ts.URL+"/restore", "application/octet-stream", bytes.NewReader(reseal))
	if err != nil {
		t.Fatal(err)
	}
	r1.Body.Close()
	if r1.StatusCode != http.StatusBadRequest {
		t.Errorf("resealed truncated snapshot: status %d, want 400", r1.StatusCode)
	}

	// A snapshot honestly stamped below the checkpoint floor must be
	// refused: it would install a degraded model as known-good.
	sys := srv.system()
	var low bytes.Buffer
	if err := sys.SaveStamped(&low, 0.20); err != nil {
		t.Fatal(err)
	}
	r2, err := http.Post(ts.URL+"/restore", "application/octet-stream", bytes.NewReader(low.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(r2.Body)
	r2.Body.Close()
	if r2.StatusCode != http.StatusBadRequest {
		t.Errorf("low-stamped snapshot: status %d, want 400 (%s)", r2.StatusCode, body)
	}

	// A healthy stamp clears the floor and reports itself back.
	var good bytes.Buffer
	if err := sys.SaveStamped(&good, 0.95); err != nil {
		t.Fatal(err)
	}
	r3, data := postRaw(t, ts.URL+"/restore", good.Bytes())
	if r3.StatusCode != http.StatusOK || !bytes.Contains(data, []byte("stamped_accuracy")) {
		t.Errorf("stamped restore: status %d body %s", r3.StatusCode, data)
	}

	// Restore-while-draining: once Close begins, installs are refused
	// with 503, not applied to a server that is shutting down.
	srv.Close()
	r4, err := http.Post(ts.URL+"/restore", "application/octet-stream", bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	r4.Body.Close()
	if r4.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("restore during drain: status %d, want 503", r4.StatusCode)
	}
	// /train during drain takes the same door.
	r5, data := postJSON(t, ts.URL+"/train", map[string]any{
		"x": ds.TrainX[:10], "y": ds.TrainY[:10], "classes": 5, "dimensions": 256,
	})
	if r5.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("train during drain: status %d, want 503 (%s)", r5.StatusCode, data)
	}
}

// postRaw posts an octet-stream body.
func postRaw(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
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

// TestAttackEndpointBurstValidation extends the drill error paths to
// the burst parameters.
func TestAttackEndpointBurstValidation(t *testing.T) {
	_, ts, _ := freshServer(t, Config{DisableRecovery: true})
	for _, body := range []map[string]any{
		{"kind": "burst", "span_frac": 0, "flip_prob": 0.5},
		{"kind": "burst", "span_frac": 1.5, "flip_prob": 0.5},
		{"kind": "burst", "span_frac": 0.02, "flip_prob": -0.1},
		{"kind": "burst", "span_frac": 0.02, "flip_prob": 1.1},
	} {
		resp, data := postJSON(t, ts.URL+"/attack", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("attack %v: status %d, want 400 (%s)", body, resp.StatusCode, data)
		}
	}
}

// TestConcurrentScrubWatchdogTraffic runs every background actor on
// real, aggressive timers — scrubber, watchdog, probe loop, recovery
// loop — under live prediction traffic and attack drills. It exists
// for the race detector: the scrubber and watchdog write the same
// model the batchers read and the recovery loop heals.
func TestConcurrentScrubWatchdogTraffic(t *testing.T) {
	ds, _, sys := e2eProblem(t)
	srv, err := New(sys, Config{
		BatchSize: 16, BatchWindow: time.Millisecond,
		Substrate: &substrate.Config{
			Kind: "dram",
			Seed: 31,
			Retention: memsim.DRAMRetention{Populations: []memsim.RetentionPopulation{
				{Fraction: 0.01, MuLogMs: math.Log(20), SigmaLog: 0.5},
			}},
			RefreshIntervalMs: 50,
			TimeScale:         10,
		},
		ScrubTick:     2 * time.Millisecond,
		Watchdog:      WatchdogConfig{Interval: 5 * time.Millisecond},
		ProbeInterval: 7 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if err := srv.SetProbe(ds.TestX[:60], ds.TestY[:60]); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_, _ = srv.Predict(ds.TestX[(g*37+i)%len(ds.TestX)])
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			select {
			case <-stop:
				return
			case <-time.After(10 * time.Millisecond):
			}
			resp, _ := postJSON(t, ts.URL+"/attack", map[string]any{
				"kind": "burst", "span_frac": 0.01, "flip_prob": 0.3, "seed": uint64(i),
			})
			resp.Body.Close()
		}
	}()

	time.Sleep(120 * time.Millisecond)
	close(stop)
	wg.Wait()
	m := metricsNow(t, ts)
	srv.Close()
	if m.Substrate.Scrubs == 0 {
		t.Error("scrubber never ticked on its real timer")
	}
	if m.Watchdog.Windows == 0 {
		t.Error("watchdog never ran on its real timer")
	}
	if _, err := srv.Predict(ds.TestX[0]); err != ErrClosed {
		t.Errorf("predict after close: %v, want ErrClosed", err)
	}
}

// BenchmarkScrubTick measures one scrubber tick against a mounted DRAM
// process on the e2e-scale model — the steady-state overhead the
// substrate adds to the serving path's lock.
func BenchmarkScrubTick(b *testing.B) {
	ds, spec, _ := problem(b)
	sys, err := core.Train(ds.TrainX, ds.TrainY, spec.Classes, core.Config{Dimensions: 4096, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	srv, err := New(sys, Config{
		DisableRecovery: true,
		Substrate:       decaySubstrate(),
		ScrubTick:       manualDrive,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.ScrubNow(time.Millisecond); err != nil {
			b.Fatal(err)
		}
	}
}
