package substrate

import (
	"math"
	"testing"
	"time"

	"repro/internal/memsim"
)

// BenchmarkDRAMDecayEpoch measures one full 1 s refresh epoch of the
// DRAM fault process at the shape of perfbench's heal_dram workload:
// k=26 class rows of D=10k bits, 20% weak cells with median retention
// 800 ms, sampled in wordline runs of 400. The rows are restored
// before every epoch, as recovery rewrites them between scrubs, so
// each epoch leaks every expired weak cell that disagrees with the
// clean row again.
func BenchmarkDRAMDecayEpoch(b *testing.B) {
	m, img := benchImage(b, 26, 10000)
	d, err := NewDRAMDecay(Config{
		Kind: "dram",
		Seed: 1,
		Retention: memsim.DRAMRetention{Populations: []memsim.RetentionPopulation{
			{Fraction: 0.20, MuLogMs: math.Log(800), SigmaLog: 0.5},
		}},
		ClusterRun: 400,
	}, img)
	if err != nil {
		b.Fatal(err)
	}
	clean := m.SnapshotDeployed()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m.RestoreDeployed(clean)
		b.StartTimer()
		if _, err := d.Advance(time.Second); err != nil {
			b.Fatal(err)
		}
	}
}
