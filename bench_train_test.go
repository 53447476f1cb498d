// Training-pipeline benchmarks: the sequential retrain baseline, the
// map-reduce parallel pipeline across worker counts, the pooled
// delta-accumulation allocation contract, and the experiments harness
// end to end at 1 vs all workers. CI's bench job runs them into its
// BENCH.json artifact.
package repro_test

import (
	"runtime"
	"testing"

	"repro/internal/experiments"
	"repro/internal/hdc/model"
)

// benchWorkerCounts is the sweep used by every parallel training
// bench: serial, a fixed mid-point, and every core the runner has.
func benchWorkerCounts() []int {
	counts := []int{1, 4}
	if n := runtime.NumCPU(); n != 1 && n != 4 {
		counts = append(counts, n)
	}
	return counts
}

// BenchmarkRetrain is the sequential baseline: mistake-driven epochs
// over the pre-encoded training set, exactly what core.Train ran
// before the map-reduce pipeline.
func BenchmarkRetrain(b *testing.B) {
	sys, ds := benchSystem(b)
	encoded := sys.EncodeAll(ds.TrainX)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := sys.Model().Clone()
		b.StartTimer()
		if _, err := m.Retrain(encoded, ds.TrainY, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRetrainParallel measures the same epochs through the
// map-reduce pipeline. Results are bit-identical to BenchmarkRetrain
// at every worker count (asserted in internal/hdc/model); the axis
// here is wall clock.
func BenchmarkRetrainParallel(b *testing.B) {
	sys, ds := benchSystem(b)
	encoded := sys.EncodeAll(ds.TrainX)
	for _, w := range benchWorkerCounts() {
		b.Run("w"+itoa(w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m := sys.Model().Clone()
				b.StartTimer()
				if _, err := m.RetrainParallel(encoded, ds.TrainY, 3, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTrainParallel measures single-pass bundling (C_l = Σ H_j)
// through sharded accumulation + counter merge.
func BenchmarkTrainParallel(b *testing.B) {
	sys, ds := benchSystem(b)
	encoded := sys.EncodeAll(ds.TrainX)
	classes := ds.Spec.Classes
	dims := sys.Dimensions()
	for _, w := range benchWorkerCounts() {
		b.Run("w"+itoa(w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m, err := model.New(classes, dims)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := m.TrainParallel(encoded, ds.TrainY, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAccumulateRetrainAllocs pins the steady-state allocation
// contract of the map phase: after the delta pool is warm, a full
// accumulate + discard cycle at workers=1 must not allocate.
func BenchmarkAccumulateRetrainAllocs(b *testing.B) {
	sys, ds := benchSystem(b)
	encoded := sys.EncodeAll(ds.TrainX)
	m := sys.Model()
	dep := m.SnapshotDeployed()
	warm, err := m.AccumulateRetrain(dep, encoded, ds.TrainY, 1)
	if err != nil {
		b.Fatal(err)
	}
	m.DiscardRetrain(warm)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd, err := m.AccumulateRetrain(dep, encoded, ds.TrainY, 1)
		if err != nil {
			b.Fatal(err)
		}
		m.DiscardRetrain(rd)
	}
}

// BenchmarkExperimentsTable1 runs the Table 1 driver end to end — the
// experiments harness's cells×trials fan-out — serial versus all
// cores. Per-trial seeds keep the reproduced numbers identical across
// worker counts; the axis is harness wall clock.
func BenchmarkExperimentsTable1(b *testing.B) {
	for _, w := range benchWorkerCounts() {
		b.Run("w"+itoa(w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ctx := experiments.NewContext(experiments.Options{
					Dimensions: 4000,
					Trials:     1,
					SizeScale:  0.3,
					Seed:       2022,
					Workers:    w,
				})
				if _, err := experiments.Table1(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
