// Networked-cluster benchmarks: the same quorum dispatch and
// anti-entropy sweep as bench_fleet_test.go, paid over HTTP to real
// node servers instead of in-process replicas — the wire tax of
// surviving process death. Scores travel as binary score frames
// (internal/cluster/wire.go); the sweep's summaries, chunks and
// repairs travel as JSON. CI's bench job runs them into its
// BENCH.json artifact.
package repro_test

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	netcluster "repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/serve"
)

// benchCluster boots a 3-node cluster — each node a full serve.Server
// with the node API mounted, loaded from one snapshot of the shared
// bench system — and a coordinator over them.
func benchCluster(b *testing.B) (*netcluster.Coordinator, *core.System, [][]float64) {
	b.Helper()
	sys, ds := benchSystem(b)
	var snap bytes.Buffer
	if err := sys.Save(&snap); err != nil {
		b.Fatal(err)
	}
	urls := make([]string, 3)
	for i := range urls {
		nodeSys, err := core.Load(bytes.NewReader(snap.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		srv, err := serve.New(nodeSys, serve.Config{NodeAPI: true, DisableRecovery: true})
		if err != nil {
			b.Fatal(err)
		}
		hs := httptest.NewServer(srv.Handler())
		b.Cleanup(func() { hs.Close(); srv.Close() })
		urls[i] = hs.URL
	}
	co, err := netcluster.New(netcluster.Config{
		Nodes:   urls,
		Quorum:  2,
		Timeout: 30 * time.Second,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(co.Close)
	return co, sys, ds.TestX
}

// BenchmarkClusterPredict measures quorum inference over the wire in
// batches of 16 raw-feature vectors (nodes encode locally). "fast" is
// the armed single-node path; "quorum" is the two-node fan-out with
// unanimous voters. Divide by the matching BenchmarkFleetPredict case
// for the pure HTTP and score-frame overhead.
func BenchmarkClusterPredict(b *testing.B) {
	co, _, testX := benchCluster(b)
	const batch = 16
	xs := testX[:batch]
	run := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := co.ScoreBatch(xs); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("fast/batch16", func(b *testing.B) {
		rep, err := co.SweepNow()
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Healthy {
			b.Fatalf("clean cluster did not arm the fast path: %+v", rep)
		}
		run(b)
	})
	b.Run("quorum/batch16", func(b *testing.B) {
		// A zero-rate drill routed through the coordinator disarms the
		// fast path without changing a bit, so every batch pays the
		// quorum fan-out with unanimous voters.
		body, _ := json.Marshal(map[string]any{"kind": "random", "rate": 0.0, "seed": 1})
		if _, err := co.Attack(0, body); err != nil {
			b.Fatal(err)
		}
		if co.Healthy() {
			b.Fatal("drill did not disarm the fast path")
		}
		run(b)
	})
}

// BenchmarkClusterSweep measures one networked repair cycle: corrupt
// 1% of one node, then sweep — summaries from every node, chunk-hash
// comparison, divergent-chunk fetch, majority vote, and the repair
// push back over the wire. The attack is outside the timer.
func BenchmarkClusterSweep(b *testing.B) {
	co, _, _ := benchCluster(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		body, _ := json.Marshal(map[string]any{"kind": "random", "rate": 0.01, "seed": uint64(i) + 1})
		if _, err := co.Attack(0, body); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		rep, err := co.SweepNow()
		if err != nil {
			b.Fatal(err)
		}
		if rep.RepairedBits == 0 {
			b.Fatal("sweep repaired nothing")
		}
	}
}
