package serve

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
)

// holdWriter parks a write inside rep's writer lock until the returned
// release is called — the replica analogue of holding a writer mutex.
func holdWriter(rep *fleet.Replica) (release func()) {
	held, done := make(chan struct{}), make(chan struct{})
	go func() {
		_ = rep.Mutate(func(*core.System) error {
			close(held)
			<-done
			return nil
		})
	}()
	<-held
	return func() { close(done) }
}

// TestPredictLockFree is the acceptance check for the RCU read path:
// predictions must complete while the writer lock is held. Before the
// RCU refactor the serving path took a read lock per batch, so a held
// write lock stalled every predict; now the batcher scores against the
// current epoch and never touches the replica's writer lock.
func TestPredictLockFree(t *testing.T) {
	srv, _, ds := freshServer(t, Config{Shards: 2, BatchSize: 8, BatchWindow: time.Millisecond})

	release := holdWriter(srv.live.Load().rep)
	defer release()

	done := make(chan error, 1)
	go func() {
		for i := 0; i < 32; i++ {
			if _, err := srv.Predict(ds.TestX[i]); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("predict under held writer lock: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("predicts stalled behind the writer mutex — read path is not lock-free")
	}
}

// TestMetricsDuringRetrain pins the /metrics path lock-free: a
// snapshot must complete while the writer lock is held (an older
// implementation read-locked the writer mutex for model/recovery/
// substrate info and would deadlock here), and scrapes must keep
// succeeding while an online retrain churns the model.
func TestMetricsDuringRetrain(t *testing.T) {
	srv, ts, ds := freshServer(t, Config{Shards: 2, BatchSize: 8, BatchWindow: time.Millisecond})

	// Part 1: snapshot with the writer lock held.
	release := holdWriter(srv.live.Load().rep)
	done := make(chan Metrics, 1)
	go func() { done <- srv.MetricsSnapshot() }()
	select {
	case m := <-done:
		if !m.Ready || m.Model == nil {
			t.Fatalf("snapshot under held writer lock lost the model info: %+v", m)
		}
		if m.Epochs == nil || m.Epochs.Published < 1 {
			t.Fatalf("snapshot missing epoch counters: %+v", m.Epochs)
		}
	case <-time.After(10 * time.Second):
		release()
		t.Fatal("MetricsSnapshot blocked on the writer lock")
	}
	release()

	// Part 2: scrape while a retrain applies epochs.
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if _, err := srv.RetrainOnline(ds.TrainX[:64], ds.TrainY[:64], 1); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 50; i++ {
		var m Metrics
		if resp := getJSON(t, ts.URL+"/metrics", &m); resp.StatusCode != 200 {
			t.Fatalf("/metrics returned %d mid-retrain", resp.StatusCode)
		}
		if !m.Ready {
			t.Fatal("/metrics lost readiness mid-retrain")
		}
	}
	stop.Store(true)
	wg.Wait()
}

// TestServePredictDuringChurn races the full serving stack: predict
// batches score lock-free while an online retrain, recovery
// observations, and epoch publishes churn the model underneath. Run
// under -race this is the serve-level companion to the model package's
// TestEpochChainNoTornReads: any torn epoch or reclaimed-vector reuse
// shows up as a race or a malformed prediction.
func TestServePredictDuringChurn(t *testing.T) {
	srv, _, ds := freshServer(t, Config{Shards: 2, BatchSize: 8, BatchWindow: time.Millisecond})

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if _, err := srv.RetrainOnline(ds.TrainX[:32], ds.TrainY[:32], 1); err != nil {
				t.Error(err)
				return
			}
			runtime.Gosched()
		}
	}()

	// Keep predicting until the retrain loop has applied at least one
	// epoch, so the churn actually overlaps the predicts regardless of
	// how slow the retrain path is (the purego kernels need far longer
	// per epoch than the SIMD tiers).
	deadline := time.Now().Add(60 * time.Second)
	for i := 0; ; i++ {
		if i >= 300 && srv.live.Load().rep.EpochStats().Published >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("retrain loop never published an epoch")
		}
		p, err := srv.Predict(ds.TestX[i%len(ds.TestX)])
		if err != nil {
			t.Fatal(err)
		}
		if p.Class < 0 || p.Confidence <= 0 || p.Confidence > 1 {
			t.Fatalf("malformed prediction mid-churn: %+v", p)
		}
	}
	stop.Store(true)
	wg.Wait()

	rep := srv.live.Load().rep
	// With every reader drained, one more publish (Mutate's full
	// reimage) must fully drain the retired backlog into the pool.
	_ = rep.Mutate(func(*core.System) error { return nil })
	s2 := rep.EpochStats()
	if s2.Backlog != 0 {
		t.Fatalf("epoch backlog %d after drain publish; leaked reader references", s2.Backlog)
	}
}
