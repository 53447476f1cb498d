// Replica-fleet benchmarks: quorum dispatch on both serving paths
// (the healthy single-replica fast path and the full quorum fan-out)
// and the anti-entropy repair sweep. CI's bench job runs them into its
// BENCH.json artifact.
package repro_test

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
)

// benchFleet builds a 3-replica fleet over the shared bench system
// with every background loop parked, so iterations measure only the
// dispatch or sweep under test.
func benchFleet(b *testing.B) (*fleet.Fleet, *core.System, [][]float64) {
	b.Helper()
	sys, ds := benchSystem(b)
	f, err := fleet.New(sys, fleet.Config{
		Replicas:        3,
		Seed:            1,
		DisableRecovery: true,
		ScrubTick:       24 * time.Hour,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(f.Close)
	return f, sys, ds.TestX
}

// BenchmarkFleetPredict measures quorum inference over pre-encoded
// batches of 16. "fast" is the armed single-replica path (a sweep has
// proven the replicas bit-identical); "quorum" is the fan-out path
// with unanimous voters — the steady-state cost of not being proven
// healthy.
func BenchmarkFleetPredict(b *testing.B) {
	f, sys, testX := benchFleet(b)
	const batch = 16
	encoded := sys.EncodeAll(testX[:batch])
	run := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := f.ScoreBatch(encoded); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("fast/batch16", func(b *testing.B) {
		if rep := f.SweepNow(); !rep.Healthy {
			b.Fatalf("clean fleet did not arm the fast path: %+v", rep)
		}
		run(b)
	})
	b.Run("quorum/batch16", func(b *testing.B) {
		// Any external mutation disarms the fast path; a no-op one
		// leaves the replicas identical, so every batch pays the
		// quorum fan-out with unanimous voters.
		if err := f.WithReplica(0, func(*core.System) error { return nil }); err != nil {
			b.Fatal(err)
		}
		if f.Healthy() {
			b.Fatal("mutation hook did not disarm the fast path")
		}
		run(b)
	})
}

// BenchmarkAntiEntropySweep measures one repair cycle: corrupt 1% of
// one replica, then sweep — snapshot all replicas, majority-vote every
// class chunk, and overwrite the minority chunks. The attack is
// outside the timer; the sweep (including the convergence re-check
// cost of its Hamming passes) is the measured unit.
func BenchmarkAntiEntropySweep(b *testing.B) {
	f, _, _ := benchFleet(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		err := f.WithReplica(0, func(target *core.System) error {
			_, aerr := target.AttackRandom(0.01, uint64(i)+1)
			return aerr
		})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if rep := f.SweepNow(); rep.RepairedBits == 0 {
			b.Fatal("sweep repaired nothing")
		}
	}
}
