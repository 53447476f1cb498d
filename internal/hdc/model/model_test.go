package model

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/bitvec"
	"repro/internal/dataset"
	"repro/internal/hdc/encoding"
	"repro/internal/stats"
)

// encodeDataset builds an encoder + encoded train/test sets for a
// small synthetic dataset. Shared by several tests.
func encodeDataset(t *testing.T, spec dataset.Spec, dims int) (tr, te []*bitvec.Vector, try, tey []int) {
	t.Helper()
	ds, err := dataset.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	norm, err := encoding.FitNormalizer(ds.TrainX)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := encoding.NewRecordEncoder(dims, 16, norm, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range ds.TrainX {
		tr = append(tr, enc.Encode(x))
	}
	for _, x := range ds.TestX {
		te = append(te, enc.Encode(x))
	}
	return tr, te, ds.TrainY, ds.TestY
}

func smallSpec() dataset.Spec {
	spec := dataset.PAMAP()
	spec.TrainSize, spec.TestSize = 250, 100
	return spec
}

func TestNewValidation(t *testing.T) {
	if _, err := New(1, 100); err == nil {
		t.Fatal("classes=1 accepted")
	}
	if _, err := New(3, 0); err == nil {
		t.Fatal("dims=0 accepted")
	}
	m, err := New(3, 100)
	if err != nil || m.Classes() != 3 || m.Dimensions() != 100 {
		t.Fatalf("New failed: %v", err)
	}
}

func TestTrainErrors(t *testing.T) {
	m, _ := New(2, 64)
	rng := stats.NewRNG(1)
	v := bitvec.Random(64, rng)
	if err := m.Train([]*bitvec.Vector{v}, []int{0, 1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if err := m.Train(nil, nil); err == nil {
		t.Fatal("empty training accepted")
	}
	if err := m.Train([]*bitvec.Vector{v}, []int{5}); err == nil {
		t.Fatal("out-of-range label accepted")
	}
	if err := m.Train([]*bitvec.Vector{bitvec.Random(32, rng)}, []int{0}); err == nil {
		t.Fatal("wrong-dims sample accepted")
	}
}

func TestTrainLearnsSyntheticData(t *testing.T) {
	spec := smallSpec()
	tr, te, try, tey := encodeDataset(t, spec, 4096)
	m, _ := New(spec.Classes, 4096)
	if err := m.Train(tr, try); err != nil {
		t.Fatal(err)
	}
	acc := m.Accuracy(te, tey)
	if acc < 0.6 {
		t.Fatalf("single-pass accuracy %.3f too low (chance %.3f)", acc, 1.0/float64(spec.Classes))
	}
}

func TestRetrainImproves(t *testing.T) {
	spec := smallSpec()
	tr, te, try, tey := encodeDataset(t, spec, 4096)
	m, _ := New(spec.Classes, 4096)
	if err := m.Train(tr, try); err != nil {
		t.Fatal(err)
	}
	before := m.Accuracy(te, tey)
	if _, err := m.Retrain(tr, try, 10); err != nil {
		t.Fatal(err)
	}
	after := m.Accuracy(te, tey)
	if after < before-0.05 {
		t.Fatalf("retrain hurt accuracy: %.3f -> %.3f", before, after)
	}
	trainAcc := m.Accuracy(tr, try)
	if trainAcc < 0.85 {
		t.Fatalf("train accuracy after retraining %.3f too low", trainAcc)
	}
}

func TestRetrainBeforeTrainErrors(t *testing.T) {
	m, _ := New(2, 64)
	if _, err := m.Retrain(nil, nil, 1); err == nil {
		t.Fatal("Retrain before Train accepted")
	}
}

func TestPredictSeparatesObviousClasses(t *testing.T) {
	// Two orthogonal prototype hypervectors; queries are noisy copies.
	rng := stats.NewRNG(5)
	const d = 2048
	proto := []*bitvec.Vector{bitvec.Random(d, rng), bitvec.Random(d, rng)}
	var tr []*bitvec.Vector
	var try []int
	for i := 0; i < 40; i++ {
		c := i % 2
		v := proto[c].Clone()
		v.FlipBernoulli(0.1, rng)
		tr = append(tr, v)
		try = append(try, c)
	}
	m, _ := New(2, d)
	if err := m.Train(tr, try); err != nil {
		t.Fatal(err)
	}
	for c, p := range proto {
		q := p.Clone()
		q.FlipBernoulli(0.15, rng)
		if got := m.Predict(q); got != c {
			t.Fatalf("query from class %d predicted %d", c, got)
		}
	}
}

func TestSimilaritiesShape(t *testing.T) {
	rng := stats.NewRNG(6)
	m, _ := New(3, 256)
	tr := []*bitvec.Vector{bitvec.Random(256, rng), bitvec.Random(256, rng), bitvec.Random(256, rng)}
	if err := m.Train(tr, []int{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	sims := similarities(m, tr[1])
	if len(sims) != 3 {
		t.Fatalf("similarities len %d", len(sims))
	}
	if stats.ArgMax(sims) != 1 {
		t.Fatalf("own training vector not most similar: %v", sims)
	}
}

func TestConfidencesSumToOneAndOrder(t *testing.T) {
	rng := stats.NewRNG(7)
	m, _ := New(4, 1024)
	var tr []*bitvec.Vector
	var try []int
	for c := 0; c < 4; c++ {
		for j := 0; j < 5; j++ {
			tr = append(tr, bitvec.Random(1024, rng))
			try = append(try, c)
		}
	}
	if err := m.Train(tr, try); err != nil {
		t.Fatal(err)
	}
	conf := confidences(m, tr[0], 0)
	var sum float64
	for _, p := range conf {
		sum += p
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("confidences sum %v", sum)
	}
	best, p := m.PredictWithConfidence(tr[0], 0)
	if best != stats.ArgMax(similarities(m, tr[0])) {
		t.Fatal("confidence argmax disagrees with similarity argmax")
	}
	if p < 1.0/4 {
		t.Fatalf("best confidence %v below uniform", p)
	}
	for _, temp := range []float64{0, 1, 50, 120} {
		for _, q := range tr[:5] {
			conf := confidences(m, q, temp)
			sum := 0.0
			for _, p := range conf {
				sum += p
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("temp=%v: confidences sum to %v", temp, sum)
			}
			best, p := m.PredictWithConfidence(q, temp)
			if best != stats.ArgMax(conf) || p != conf[best] {
				t.Fatalf("temp=%v: PredictWithConfidence (%d, %v) != confidences argmax (%d, %v)",
					temp, best, p, stats.ArgMax(conf), conf[stats.ArgMax(conf)])
			}
		}
	}
}

func TestPredictWithConfidenceTemperatureSharpens(t *testing.T) {
	// Higher temperature must push confidence toward 1, lower toward
	// the uninformative 1/k floor — monotone in temperature.
	spec := smallSpec()
	tr, te, try, _ := encodeDataset(t, spec, 4096)
	m, _ := New(spec.Classes, 4096)
	if err := m.Train(tr, try); err != nil {
		t.Fatal(err)
	}
	_, lo := m.PredictWithConfidence(te[0], 30)
	_, mid := m.PredictWithConfidence(te[0], 120)
	_, hi := m.PredictWithConfidence(te[0], 400)
	if !(lo < mid && mid < hi) {
		t.Fatalf("confidence not monotone in temperature: %v, %v, %v", lo, mid, hi)
	}
	floor := 1.0 / float64(m.Classes())
	if lo <= floor || hi > 1 {
		t.Fatalf("confidence out of (1/k, 1]: lo=%v hi=%v floor=%v", lo, hi, floor)
	}
}

func TestSnapshotRestore(t *testing.T) {
	rng := stats.NewRNG(8)
	m, _ := New(2, 512)
	tr := []*bitvec.Vector{bitvec.Random(512, rng), bitvec.Random(512, rng)}
	if err := m.Train(tr, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	snap := m.SnapshotDeployed()
	m.ClassVector(0).FlipBernoulli(0.5, rng)
	if m.ClassVector(0).Equal(snap[0]) {
		t.Fatal("attack did not change deployed vector")
	}
	m.RestoreDeployed(snap)
	if !m.ClassVector(0).Equal(snap[0]) {
		t.Fatal("restore failed")
	}
	// Restored copies must be independent of the snapshot.
	m.ClassVector(0).Flip(0)
	if m.ClassVector(0).Equal(snap[0]) {
		t.Fatal("restore aliased snapshot")
	}
}

func TestSetClassVectorValidation(t *testing.T) {
	m, _ := New(2, 64)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dims mismatch")
		}
	}()
	m.SetClassVector(0, bitvec.New(32))
}

func TestAttackDegradesGracefully(t *testing.T) {
	// The headline robustness property: flipping 10% of the deployed
	// bits must not collapse accuracy.
	spec := smallSpec()
	tr, te, try, tey := encodeDataset(t, spec, 4096)
	m, _ := New(spec.Classes, 4096)
	if err := m.Train(tr, try); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Retrain(tr, try, 5); err != nil {
		t.Fatal(err)
	}
	clean := m.Accuracy(te, tey)
	rng := stats.NewRNG(99)
	for c := 0; c < m.Classes(); c++ {
		m.ClassVector(c).FlipBernoulli(0.10, rng)
	}
	faulty := m.Accuracy(te, tey)
	if clean-faulty > 0.10 {
		t.Fatalf("10%% flips cost %.1f points — HDC should be robust", (clean-faulty)*100)
	}
}

// Property: single-pass training is order-invariant — bundling is
// commutative, so shuffling the training set yields a bit-identical
// deployed model.
func TestTrainOrderInvariance(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		const n, d = 30, 512
		xs := make([]*bitvec.Vector, n)
		ys := make([]int, n)
		for i := range xs {
			xs[i] = bitvec.Random(d, rng)
			ys[i] = i % 3
		}
		a, _ := New(3, d)
		if err := a.Train(xs, ys); err != nil {
			return false
		}
		// Shuffled copy.
		perm := rng.Perm(n)
		sx := make([]*bitvec.Vector, n)
		sy := make([]int, n)
		for i, p := range perm {
			sx[i], sy[i] = xs[p], ys[p]
		}
		b, _ := New(3, d)
		if err := b.Train(sx, sy); err != nil {
			return false
		}
		for c := 0; c < 3; c++ {
			if !a.ClassVector(c).Equal(b.ClassVector(c)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestAccuracyParallelMatchesSerial(t *testing.T) {
	tr, te, try, tey := encodeDataset(t, smallSpec(), 2048)
	m, err := New(5, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Train(tr, try); err != nil {
		t.Fatal(err)
	}
	// Scored against the serial predictions as labels, every worker
	// count must reach exactly 1: each query predicts as it does alone.
	serial := make([]int, len(te))
	for i, q := range te {
		serial[i] = m.Predict(q)
	}
	for _, workers := range []int{0, 1, 2, 7, 64, 1000} {
		if got := m.AccuracyParallel(te, serial, workers); got != 1 {
			t.Fatalf("workers=%d: parallel predictions match serial on %.4f of queries", workers, got)
		}
	}
	if a, b := m.Accuracy(te, tey), m.AccuracyParallel(te, tey, 1); a != b {
		t.Fatalf("Accuracy %.4f != AccuracyParallel(workers=1) %.4f", a, b)
	}
	if got := m.AccuracyParallel(nil, nil, 4); got != 0 {
		t.Fatalf("empty batch scored accuracy %v, want 0", got)
	}
}
