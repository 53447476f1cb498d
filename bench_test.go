// Package repro_test holds the benchmark harness that regenerates
// every table and figure of the paper (one Benchmark per experiment,
// reporting the headline quantities as custom metrics), micro
// benchmarks of the hot HDC primitives, and the ablation benches
// called out in DESIGN.md.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// The experiment benches use reduced dataset scales so the full suite
// completes in minutes; the cmd/experiments binary runs the same
// drivers at full scale.
package repro_test

import (
	"fmt"
	"math/rand/v2"
	"sync/atomic"
	"testing"

	"repro/internal/attack"
	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/hdc"
	"repro/internal/hdc/am"
	"repro/internal/hdc/encoding"
	"repro/internal/hdc/model"
	"repro/internal/hdc/regress"
	"repro/internal/memsim"
	"repro/internal/pim"
	"repro/internal/recovery"
	"repro/internal/serve"
	"repro/internal/stats"
)

// benchContext builds a reduced-scale experiment context. Each bench
// gets a fresh context so model caches do not leak between runs.
func benchContext() *experiments.Context {
	return experiments.NewContext(experiments.Options{
		Dimensions: 4000,
		Trials:     1,
		SizeScale:  0.3,
		Seed:       2022,
	})
}

// ---------------------------------------------------------------------------
// One bench per paper table/figure.
// ---------------------------------------------------------------------------

// BenchmarkTable1 regenerates Table 1: HDC quality loss under random
// noise across dimensionality and precision, versus the DNN.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table1(benchContext())
		if err != nil {
			b.Fatal(err)
		}
		last := len(res.Rates) - 1
		for _, row := range res.Rows {
			b.ReportMetric(row.Measured[last], metricUnit("loss15%:"+row.Label))
		}
	}
}

// BenchmarkTable2 regenerates the Table 2 roster with clean accuracies.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table2(benchContext())
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			b.ReportMetric(row.Accuracy, metricUnit("acc:"+row.Spec.Name))
		}
	}
}

// BenchmarkTable3 regenerates Table 3: quality loss of DNN, SVM,
// AdaBoost, and HDC under random and targeted attacks.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table3(benchContext())
		if err != nil {
			b.Fatal(err)
		}
		last := len(res.Rates) - 1
		for _, cell := range res.Cells {
			b.ReportMetric(cell.Measured[last], metricUnit("loss12%:"+cell.Algorithm+"-"+cell.Attack))
		}
	}
}

// BenchmarkTable4 regenerates Table 4: quality loss with and without
// the RobustHD recovery loop.
func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table4(benchContext())
		if err != nil {
			b.Fatal(err)
		}
		last := len(res.Rates) - 1
		var with, without float64
		for _, c := range res.Cells {
			with += c.WithRecovery[last] / float64(len(res.Cells))
			without += c.WithoutRecovery[last] / float64(len(res.Cells))
		}
		b.ReportMetric(without, "meanLoss10%:without")
		b.ReportMetric(with, "meanLoss10%:with")
	}
}

// BenchmarkFig2 regenerates Figure 2: PIM/GPU efficiency bars.
func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig2(benchContext())
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range res.Entries {
			b.ReportMetric(e.Speedup, metricUnit("speedup:"+e.Name))
			b.ReportMetric(e.EnergyEff, metricUnit("energyEff:"+e.Name))
		}
	}
}

// BenchmarkFig3 regenerates Figure 3: recovery dynamics across the
// confidence threshold and substitution rate sweeps.
func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig3(benchContext())
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range res.ConfidenceSweep {
			b.ReportMetric(p.FinalLoss, "finalLossTC")
		}
	}
}

// BenchmarkFig4a regenerates Figure 4a: accuracy over years of PIM
// operation for DNN and HDC workloads.
func BenchmarkFig4a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig4a(benchContext())
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range res.Series {
			b.ReportMetric(s.LifetimeYears, metricUnit("lifetimeYears:"+s.Name))
		}
	}
}

// BenchmarkFig4b regenerates Figure 4b: DRAM refresh relaxation.
func BenchmarkFig4b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig4b(benchContext())
		if err != nil {
			b.Fatal(err)
		}
		last := res.Points[len(res.Points)-1]
		b.ReportMetric(last.EnergyImprovement, "energyGain@6%")
		b.ReportMetric(last.HDCAccuracy-last.DNNAccuracy, "accGapHDCvsDNN@6%")
	}
}

// ---------------------------------------------------------------------------
// Micro benchmarks of the hot primitives.
// ---------------------------------------------------------------------------

func benchSystem(b *testing.B) (*core.System, *dataset.Dataset) {
	b.Helper()
	spec := dataset.PAMAP()
	spec.TrainSize, spec.TestSize = 300, 100
	ds, err := dataset.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := core.Train(ds.TrainX, ds.TrainY, spec.Classes, core.Config{Dimensions: 10000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return sys, ds
}

// BenchmarkEncode measures record-encoding throughput at the paper's
// D=10k operating point.
func BenchmarkEncode(b *testing.B) {
	sys, ds := benchSystem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Encode(ds.TestX[i%len(ds.TestX)])
	}
}

// unitEncoder builds a D=dims encoder over features values already in
// [0, 1]: a unit range per feature, so every raw value still takes the
// encoder's normalize-and-quantize pass.
func unitEncoder(b *testing.B, dims, features, levels int, seed uint64) *encoding.RecordEncoder {
	b.Helper()
	zeros, ones := make([]float64, features), make([]float64, features)
	for j := range ones {
		ones[j] = 1
	}
	norm, err := encoding.NormalizerFromRanges(zeros, ones)
	if err != nil {
		b.Fatal(err)
	}
	enc, err := encoding.NewRecordEncoder(dims, levels, norm, seed)
	if err != nil {
		b.Fatal(err)
	}
	return enc
}

// BenchmarkEncodeBatch measures batch-major record encoding, from raw
// rows through the normalize-and-quantize pass, at D=10k for the three
// served feature counts (PAMAP 75, UCIHAR 561, ISOLET 617) and batch
// sizes 1, 8 and 16, under every registered kernel tier. Every op encodes the next batch of a 64-sample pool, so the
// level indices, and the level rows they pick, change from op to op.
// Each parallel goroutine owns its scratch and destinations, so -cpu 2
// runs two concurrent encoders; ns/sample is wall time per encoded
// sample.
func BenchmarkEncodeBatch(b *testing.B) {
	for _, features := range []int{75, 561, 617} {
		enc := unitEncoder(b, 10000, features, 8, 1)
		rng := stats.NewRNG(2)
		pool := make([][]float64, 64)
		for i := range pool {
			pool[i] = make([]float64, features)
			for j := range pool[i] {
				pool[i][j] = rng.Float64()
			}
		}
		for _, batch := range []int{1, 8, 16} {
			b.Run(fmt.Sprintf("features=%d/batch=%d", features, batch), func(b *testing.B) {
				forEachKernelBench(b, func(b *testing.B) {
					b.ReportAllocs()
					b.RunParallel(func(pb *testing.PB) {
						dsts := make([]*bitvec.Vector, batch)
						for i := range dsts {
							dsts[i] = bitvec.New(10000)
						}
						scratch := enc.NewScratch()
						for next := 0; pb.Next(); next = (next + batch) % len(pool) {
							enc.EncodeBatchInto(dsts, pool[next:next+batch], scratch)
						}
					})
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/sample")
				})
			})
		}
	}
}

// BenchmarkEncodeAllocs pins the zero-allocation contract of the
// steady-state encode path: EncodeInto with a caller-owned destination
// and scratch must not allocate.
func BenchmarkEncodeAllocs(b *testing.B) {
	enc := unitEncoder(b, 10000, 75, 8, 1)
	rng := stats.NewRNG(3)
	x := make([]float64, 75)
	for i := range x {
		x[i] = rng.Float64()
	}
	dst := bitvec.New(10000)
	scratch := enc.NewScratch()
	enc.EncodeInto(dst, x, scratch) // warm cache + scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.EncodeInto(dst, x, scratch)
	}
}

// BenchmarkHammingMany measures the fused multi-class scoring kernel
// against the per-class Hamming loop it replaced, over 12 classes at
// D=10k (the paper's largest class count and main dimensionality).
func BenchmarkHammingMany(b *testing.B) {
	rng := stats.NewRNG(4)
	q := bitvec.Random(10000, rng)
	cs := make([]*bitvec.Vector, 12)
	for i := range cs {
		cs[i] = bitvec.Random(10000, rng)
	}
	dists := make([]int, len(cs))
	b.Run("fused", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bitvec.HammingMany(q, cs, dists)
		}
	})
	b.Run("nearest", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bitvec.Nearest(q, cs, dists)
		}
	})
	b.Run("perclass", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for c, cv := range cs {
				dists[c] = q.Hamming(cv)
			}
		}
	})
}

// forEachKernelBench runs fn once per registered kernel table
// (portable first, best last), restoring the auto-selected table
// afterwards — the per-tier speedup ladder in CI's BENCH.json.
func forEachKernelBench(b *testing.B, fn func(b *testing.B)) {
	prev := bitvec.KernelName()
	defer func() { _ = bitvec.UseKernels(prev) }()
	for _, name := range bitvec.AvailableKernels() {
		if err := bitvec.UseKernels(name); err != nil {
			b.Fatal(err)
		}
		b.Run(name, fn)
	}
}

// BenchmarkHammingManySIMD scores 12 classes at D=10000 through each
// registered kernel tier.
func BenchmarkHammingManySIMD(b *testing.B) {
	rng := stats.NewRNG(4)
	q := bitvec.Random(10000, rng)
	cs := make([]*bitvec.Vector, 12)
	for i := range cs {
		cs[i] = bitvec.Random(10000, rng)
	}
	dists := make([]int, len(cs))
	forEachKernelBench(b, func(b *testing.B) {
		b.SetBytes(int64(len(cs) * 10000 / 8))
		for i := 0; i < b.N; i++ {
			bitvec.HammingMany(q, cs, dists)
		}
	})
}

// BenchmarkMajorityInto votes 3- and 5-replica majorities at D=10000
// (the fleet anti-entropy vote; portable Go on every tier).
func BenchmarkMajorityInto(b *testing.B) {
	rng := stats.NewRNG(6)
	vs := make([]*bitvec.Vector, 5)
	for i := range vs {
		vs[i] = bitvec.Random(10000, rng)
	}
	dst := bitvec.New(10000)
	for _, fanIn := range []int{3, 5} {
		fanIn := fanIn
		b.Run(fmt.Sprintf("fanin=%d", fanIn), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bitvec.MajorityInto(dst, vs[:fanIn])
			}
		})
	}
}

// BenchmarkNearestEarlyAbandon pins the block-level abandon win at
// high dimensionality: one near candidate among 15 far ones, where a
// full scan would score every block of every candidate. Guards the
// regression where SIMD blocking silently disables the abandon path.
func BenchmarkNearestEarlyAbandon(b *testing.B) {
	rng := stats.NewRNG(7)
	const n = 512 * 64 * 8
	q := bitvec.Random(n, rng)
	cs := make([]*bitvec.Vector, 16)
	for i := range cs {
		cs[i] = q.Clone()
		if i == 3 {
			cs[i].FlipBernoulli(0.01, rng)
		} else {
			cs[i].FlipBernoulli(0.99, rng)
		}
	}
	dists := make([]int, len(cs))
	b.Run("nearest", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if bitvec.Nearest(q, cs, dists) != 3 {
				b.Fatal("wrong winner")
			}
		}
	})
	b.Run("fullscan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bitvec.HammingMany(q, cs, dists)
		}
	})
}

// BenchmarkPredict measures end-to-end classification (encode +
// associative search).
func BenchmarkPredict(b *testing.B) {
	sys, ds := benchSystem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Predict(ds.TestX[i%len(ds.TestX)])
	}
}

// BenchmarkServeBatchPredict measures end-to-end serving throughput
// through the sharded batching pool across shard counts and batch
// sizes — the perf baseline for the serve package. Recovery is
// disabled so the numbers isolate the request path; parallel clients
// keep every shard's batcher saturated.
func BenchmarkServeBatchPredict(b *testing.B) {
	sys, ds := benchSystem(b)
	for _, shards := range []int{1, 4} {
		for _, batch := range []int{16, 128} {
			name := "shards" + itoa(shards) + "/batch" + itoa(batch)
			b.Run(name, func(b *testing.B) {
				srv, err := serve.New(sys, serve.Config{
					Shards:          shards,
					BatchSize:       batch,
					DisableRecovery: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				defer srv.Close()
				var next atomic.Int64
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					for pb.Next() {
						i := int(next.Add(1)) % len(ds.TestX)
						if _, err := srv.Predict(ds.TestX[i]); err != nil {
							b.Error(err)
							return
						}
					}
				})
			})
		}
	}
}

// BenchmarkHamming10k measures the word-wise Hamming kernel.
func BenchmarkHamming10k(b *testing.B) {
	rng := stats.NewRNG(1)
	x := bitvec.Random(10000, rng)
	y := bitvec.Random(10000, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Hamming(y)
	}
}

// BenchmarkBundle measures the majority bundle of 100 hypervectors.
func BenchmarkBundle(b *testing.B) {
	rng := stats.NewRNG(2)
	vs := make([]*bitvec.Vector, 100)
	for i := range vs {
		vs[i] = bitvec.Random(10000, rng)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hdc.Bundle(vs...)
	}
}

// BenchmarkCompressLogHD folds a 5-class model at D=10000 into a LogHD
// deployment with 2 redundancy planes, the shape of a PAMAP tenant
// served through the LogHD backend.
func BenchmarkCompressLogHD(b *testing.B) {
	rng := stats.NewRNG(9)
	m, err := model.New(5, 10000)
	if err != nil {
		b.Fatal(err)
	}
	for c := 0; c < m.Classes(); c++ {
		m.SetClassVector(c, bitvec.Random(10000, rng))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.CompressLogHD(m, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecoveryObserve measures one recovery-loop observation.
func BenchmarkRecoveryObserve(b *testing.B) {
	sys, ds := benchSystem(b)
	queries := sys.EncodeAll(ds.TestX)
	r, err := sys.NewRecoverer(recovery.DefaultConfig(), 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Observe(queries[i%len(queries)])
	}
}

// BenchmarkRecoveryObserveTrusted measures one observation of a
// trusted query on an ISOLET model (k=26, D=10k) whose class vectors
// carry clustered damage, the heal_dram shape: every query clears the
// gate, so each runs the chunk contests and substitutes into the
// chunks they flag. The damaged image is restored after each pass
// over the queries, off the clock, so healing does not empty the
// workload.
func BenchmarkRecoveryObserveTrusted(b *testing.B) {
	spec := dataset.ISOLET()
	spec.TrainSize, spec.TestSize = 520, 400
	ds, err := dataset.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := core.Train(ds.TrainX, ds.TrainY, spec.Classes, core.Config{Dimensions: 10000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	m := sys.Model()
	rng := stats.NewRNG(12)
	for c := 0; c < m.Classes(); c++ {
		for burst := 0; burst < 5; burst++ {
			lo := rng.IntN(10000 - 400)
			run := m.ClassVector(c).Slice(lo, lo+400)
			run.FlipBernoulli(0.5, rng)
			m.ClassVector(c).OverwriteSlice(run, lo)
		}
	}
	damaged := m.SnapshotDeployed()
	var trusted []*bitvec.Vector
	for _, q := range sys.EncodeAll(ds.TestX) {
		if _, conf := m.PredictWithConfidence(q, 0); conf >= recovery.DefaultConfig().ConfidenceThreshold {
			trusted = append(trusted, q)
		}
	}
	if len(trusted) == 0 {
		b.Fatal("no query clears the confidence gate")
	}
	r, err := sys.NewRecoverer(recovery.DefaultConfig(), 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%len(trusted) == 0 {
			b.StopTimer()
			m.RestoreDeployed(damaged)
			b.StartTimer()
		}
		r.Observe(trusted[i%len(trusted)])
	}
	st := r.Stats()
	b.ReportMetric(float64(st.FaultyChunks)/float64(st.ChunksChecked), "flagged/chunk")
}

// BenchmarkHammingChunks builds recovery's (class, chunk) Hamming
// table at k=26, D=10k, m=10 two ways: one span call per class row
// through HammingChunks, and the 260 HammingRange calls it replaced.
func BenchmarkHammingChunks(b *testing.B) {
	const k, dims, chunks = 26, 10000, 10
	rng := stats.NewRNG(13)
	q := bitvec.Random(dims, rng)
	cs := make([]*bitvec.Vector, k)
	for i := range cs {
		cs[i] = bitvec.Random(dims, rng)
	}
	bounds := make([]int, chunks+1)
	for j := range bounds {
		bounds[j] = j * dims / chunks
	}
	table := make([]int, k*chunks)
	b.Run("spans", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bitvec.HammingChunks(q, cs, bounds, table)
		}
	})
	b.Run("ranges", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for c, cv := range cs {
				for j := 0; j < chunks; j++ {
					table[c*chunks+j] = q.HammingRange(cv, bounds[j], bounds[j+1])
				}
			}
		}
	})
}

// BenchmarkAttack10k measures a 10% random attack on a D=10k model.
func BenchmarkAttack10k(b *testing.B) {
	sys, _ := benchSystem(b)
	img := sys.AttackImage()
	rng := stats.NewRNG(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := attack.Random(img, 0.10, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Ablation benches (see DESIGN.md).
// ---------------------------------------------------------------------------

// ablationRecovery runs attack + recovery with the given config and
// returns the final quality loss in points.
func ablationRecovery(b *testing.B, mutate func(*recovery.Config)) float64 {
	b.Helper()
	sys, ds := benchSystem(b)
	queries := sys.EncodeAll(ds.TestX)
	clean := sys.Model().Accuracy(queries, ds.TestY)
	if _, err := sys.AttackRandom(0.15, 7); err != nil {
		b.Fatal(err)
	}
	cfg := recovery.DefaultConfig()
	mutate(&cfg)
	r, err := sys.NewRecoverer(cfg, 9)
	if err != nil {
		b.Fatal(err)
	}
	for pass := 0; pass < 3; pass++ {
		r.Run(queries)
	}
	return stats.QualityLoss(clean, sys.Model().Accuracy(queries, ds.TestY))
}

// BenchmarkAblationChunks sweeps the fault-detection chunk count m.
func BenchmarkAblationChunks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, m := range []int{2, 10, 50} {
			loss := ablationRecovery(b, func(c *recovery.Config) { c.Chunks = m })
			b.ReportMetric(loss, "loss:m="+itoa(m))
		}
	}
}

// BenchmarkAblationConfidenceGate compares the default gate against a
// disabled (accept-everything) gate.
func BenchmarkAblationConfidenceGate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		withGate := ablationRecovery(b, func(c *recovery.Config) {})
		noGate := ablationRecovery(b, func(c *recovery.Config) {
			c.ConfidenceThreshold = 1.0 / 1e6 // trust everything
			c.GuardZ = -1
		})
		b.ReportMetric(withGate, "loss:gated")
		b.ReportMetric(noGate, "loss:ungated")
	}
}

// BenchmarkAblationSubstitution compares probabilistic substitution
// against full-chunk overwrite (S = 1).
func BenchmarkAblationSubstitution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		prob := ablationRecovery(b, func(c *recovery.Config) { c.SubstitutionRate = 0.25 })
		overwrite := ablationRecovery(b, func(c *recovery.Config) { c.SubstitutionRate = 1.0 })
		b.ReportMetric(prob, "loss:S=0.25")
		b.ReportMetric(overwrite, "loss:S=1.0")
	}
}

// BenchmarkAblationEnsemble compares the paper's single-query
// substitution against the ensemble extension on grossly damaged
// models (where substitution actually engages): the reported metric is
// the residual Hamming distance to the clean model after recovery.
func BenchmarkAblationEnsemble(b *testing.B) {
	// Correlated-prototype stream (small class margins, the regime
	// where the chunk contest engages under gross uniform damage).
	const dims, classes, streamN = 4096, 3, 600
	rng := stats.NewRNG(20)
	base := bitvec.Random(dims, rng)
	protos := make([]*bitvec.Vector, classes)
	for c := range protos {
		protos[c] = base.Clone()
		protos[c].FlipBernoulli(0.04, rng)
	}
	draw := func(n int, r2 *stats2Rand) ([]*bitvec.Vector, []int) {
		xs := make([]*bitvec.Vector, n)
		ys := make([]int, n)
		for i := range xs {
			c := i % classes
			v := protos[c].Clone()
			v.FlipBernoulli(0.05, r2.r)
			xs[i], ys[i] = v, c
		}
		return xs, ys
	}
	for i := 0; i < b.N; i++ {
		for _, window := range []int{0, 8} {
			r2 := &stats2Rand{r: stats.NewRNG(21)}
			trainX, trainY := draw(60, r2)
			m := mustModel(b, classes, dims)
			if err := m.Train(trainX, trainY); err != nil {
				b.Fatal(err)
			}
			snap := m.SnapshotDeployed()
			arng := stats.NewRNG(22)
			for c := 0; c < classes; c++ {
				m.ClassVector(c).FlipBernoulli(0.25, arng)
			}
			cfg := recovery.DefaultConfig()
			cfg.GuardZ = -1
			cfg.ConfidenceThreshold = 0.8
			cfg.EnsembleWindow = window
			r, err := recovery.New(m, cfg, 23)
			if err != nil {
				b.Fatal(err)
			}
			stream, _ := draw(streamN, r2)
			r.Run(stream)
			dist := 0
			for c := 0; c < classes; c++ {
				dist += m.ClassVector(c).Hamming(snap[c])
			}
			b.ReportMetric(float64(dist), metricUnit("residualBits:W="+itoa(window)))
		}
	}
}

// stats2Rand wraps the RNG so draw closures share one stream.
type stats2Rand struct{ r *rand.Rand }

func mustModel(b *testing.B, classes, dims int) *model.Model {
	b.Helper()
	m, err := model.New(classes, dims)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkAblationPrecision compares binary vs 2-bit HDC model
// robustness at a 15% attack.
func BenchmarkAblationPrecision(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys, ds := benchSystem(b)
		queries := sys.EncodeAll(ds.TestX)
		for _, bits := range []int{1, 2} {
			q, err := sys.Quantize(bits)
			if err != nil {
				b.Fatal(err)
			}
			clean := q.Accuracy(queries, ds.TestY)
			img := attack.NewQuantizedModel(q)
			if _, err := attack.Random(img, 0.15, stats.NewRNG(11)); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(stats.QualityLoss(clean, q.Accuracy(queries, ds.TestY)), "loss:bits="+itoa(bits))
		}
	}
}

// BenchmarkAblationWearLevel compares PIM lifetime with and without
// wear leveling.
func BenchmarkAblationWearLevel(b *testing.B) {
	m := pim.NewCostModel()
	w, err := pim.HDCWorkload(m, 561, 10000, 12)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		on := pim.DefaultLifetimeConfig(w)
		off := on
		off.WearLeveling.Enabled = false
		off.WearLeveling.HotFraction = 0.1
		yOn, err := on.YearsUntilErrorRate(0.01)
		if err != nil {
			b.Fatal(err)
		}
		yOff, err := off.YearsUntilErrorRate(0.01)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(yOn, "years:leveled")
		b.ReportMetric(yOff, "years:unleveled")
	}
}

// metricUnit makes a label safe for testing.B.ReportMetric (units
// must not contain whitespace).
func metricUnit(s string) string {
	out := make([]byte, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == ' ' || c == '\t' {
			c = '_'
		}
		out[i] = c
	}
	return string(out)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// ---------------------------------------------------------------------------
// Micro benchmarks of the extension substrates.
// ---------------------------------------------------------------------------

// BenchmarkAssociativeRecall measures cleanup-memory recall over 100
// stored items at D=10k.
func BenchmarkAssociativeRecall(b *testing.B) {
	rng := stats.NewRNG(30)
	memory, err := am.New(10000)
	if err != nil {
		b.Fatal(err)
	}
	var items []*bitvec.Vector
	for i := 0; i < 100; i++ {
		v := bitvec.Random(10000, rng)
		items = append(items, v)
		if err := memory.Store(itoa(i), v); err != nil {
			b.Fatal(err)
		}
	}
	q := items[42].Clone()
	q.FlipBernoulli(0.1, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := memory.Recall(q); !ok {
			b.Fatal("recall failed")
		}
	}
}

// BenchmarkCrossbarNOR measures one row-parallel in-memory NOR over
// 10k rows.
func BenchmarkCrossbarNOR(b *testing.B) {
	xb, err := pim.NewCrossbar(10000, 4, 0)
	if err != nil {
		b.Fatal(err)
	}
	rng := stats.NewRNG(33)
	for col := 0; col < 2; col++ {
		bits := make([]bool, 10000)
		for i := range bits {
			bits[i] = rng.Float64() < 0.5
		}
		if err := xb.LoadColumn(col, bits); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		xb.NOR([]int{0, 1}, 2)
	}
}

// BenchmarkSECDEDDecode measures the ECC decode path.
func BenchmarkSECDEDDecode(b *testing.B) {
	var c memsim.SECDED
	word := uint64(0xDEADBEEFCAFEBABE)
	check := c.Encode(word)
	corrupted := word ^ (1 << 17)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, res := c.Decode(corrupted, check); res != memsim.DecodeCorrected {
			b.Fatal("decode failed")
		}
	}
}

// BenchmarkRegressionPredict measures a deployed HDC regression
// prediction at D=8192.
func BenchmarkRegressionPredict(b *testing.B) {
	rng := stats.NewRNG(34)
	enc := unitEncoder(b, 8192, 12, 16, 35)
	var hs []*bitvec.Vector
	var ys []float64
	for i := 0; i < 150; i++ {
		x := make([]float64, 12)
		for j := range x {
			x[j] = rng.Float64()
		}
		hs = append(hs, enc.Encode(x))
		ys = append(ys, 2*x[0]-x[1])
	}
	r, err := regress.Train(hs, ys, regress.Config{Epochs: 5})
	if err != nil {
		b.Fatal(err)
	}
	d := r.Deploy()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Predict(hs[i%len(hs)])
	}
}
