package core

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/recovery"
)

func smallData(t *testing.T) *dataset.Dataset {
	t.Helper()
	spec := dataset.PAMAP()
	spec.TrainSize, spec.TestSize = 300, 120
	ds, err := dataset.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func smallConfig() Config {
	return Config{Dimensions: 4096, Levels: 16, RetrainEpochs: 3, Seed: 7}
}

func trainSmall(t *testing.T) (*System, *dataset.Dataset) {
	t.Helper()
	ds := smallData(t)
	s, err := Train(ds.TrainX, ds.TrainY, ds.Spec.Classes, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	return s, ds
}

func TestTrainValidation(t *testing.T) {
	if _, err := Train(nil, nil, 2, Config{}); err == nil {
		t.Fatal("empty training accepted")
	}
	if _, err := Train([][]float64{{1, 2}}, []int{0, 1}, 2, Config{}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := Train([][]float64{{1, 2}, {3, 4}}, []int{0, 1}, 1, Config{}); err == nil {
		t.Fatal("single class accepted")
	}
}

func TestTrainAndEvaluate(t *testing.T) {
	s, ds := trainSmall(t)
	acc := s.Accuracy(ds.TestX, ds.TestY)
	if acc < 0.7 {
		t.Fatalf("test accuracy %.3f too low", acc)
	}
	if s.Classes() != ds.Spec.Classes || s.Dimensions() != 4096 {
		t.Fatal("accessors wrong")
	}
}

func TestDefaultConfigFillsZeroes(t *testing.T) {
	ds := smallData(t)
	s, err := Train(ds.TrainX[:50], ds.TrainY[:50], ds.Spec.Classes, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.Dimensions() != 10000 {
		t.Fatalf("default dimensions = %d", s.Dimensions())
	}
}

func TestPredictMatchesAccuracyPath(t *testing.T) {
	s, ds := trainSmall(t)
	correct := 0
	for i, x := range ds.TestX {
		if s.Predict(x) == ds.TestY[i] {
			correct++
		}
	}
	manual := float64(correct) / float64(len(ds.TestX))
	if acc := s.Accuracy(ds.TestX, ds.TestY); acc != manual {
		t.Fatalf("Accuracy %.4f != per-sample %.4f", acc, manual)
	}
}

func TestPredictWithConfidence(t *testing.T) {
	s, ds := trainSmall(t)
	pred, conf := s.PredictWithConfidence(ds.TestX[0])
	if pred < 0 || pred >= s.Classes() {
		t.Fatalf("prediction %d out of range", pred)
	}
	if conf < 1.0/float64(s.Classes()) || conf > 1 {
		t.Fatalf("confidence %v out of range", conf)
	}
}

func TestAttackReducesThenRestore(t *testing.T) {
	s, ds := trainSmall(t)
	clean := s.Accuracy(ds.TestX, ds.TestY)
	snap := s.Snapshot()
	res, err := s.AttackRandom(0.4, 11)
	if err != nil {
		t.Fatal(err)
	}
	if res.ElementsHit == 0 {
		t.Fatal("attack hit nothing")
	}
	attacked := s.Accuracy(ds.TestX, ds.TestY)
	if attacked > clean {
		t.Logf("note: attack at 40%% improved accuracy %.3f -> %.3f (possible on easy data)", clean, attacked)
	}
	s.Restore(snap)
	if got := s.Accuracy(ds.TestX, ds.TestY); got != clean {
		t.Fatalf("restore did not recover accuracy: %.3f != %.3f", got, clean)
	}
}

func TestAttackRandomEqualsTargetedForBinary(t *testing.T) {
	s1, ds := trainSmall(t)
	s2, _ := Train(ds.TrainX, ds.TrainY, ds.Spec.Classes, smallConfig())
	if _, err := s1.AttackRandom(0.1, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.AttackTargeted(0.1, 5); err != nil {
		t.Fatal(err)
	}
	// Same seed, binary image: identical flip sets.
	for c := 0; c < s1.Classes(); c++ {
		if !s1.Model().ClassVector(c).Equal(s2.Model().ClassVector(c)) {
			t.Fatal("random and targeted diverged on binary model")
		}
	}
}

func TestRobustnessHeadline(t *testing.T) {
	// 10% element flips must cost only a few points — the paper's
	// headline HDC robustness claim.
	s, ds := trainSmall(t)
	clean := s.Accuracy(ds.TestX, ds.TestY)
	if _, err := s.AttackRandom(0.10, 13); err != nil {
		t.Fatal(err)
	}
	faulty := s.Accuracy(ds.TestX, ds.TestY)
	if clean-faulty > 0.08 {
		t.Fatalf("10%% attack cost %.1f points", (clean-faulty)*100)
	}
}

func TestRecoveryIntegration(t *testing.T) {
	s, ds := trainSmall(t)
	clean := s.Accuracy(ds.TestX, ds.TestY)
	if _, err := s.AttackRandom(0.15, 17); err != nil {
		t.Fatal(err)
	}
	r, err := s.NewRecoverer(recovery.DefaultConfig(), 19)
	if err != nil {
		t.Fatal(err)
	}
	// Recover over the unlabeled test stream (twice for more passes).
	queries := s.EncodeAll(ds.TestX)
	r.Run(queries)
	r.Run(queries)
	recovered := s.Accuracy(ds.TestX, ds.TestY)
	if recovered < clean-0.05 {
		t.Fatalf("recovery left accuracy at %.3f (clean %.3f)", recovered, clean)
	}
}

func TestQuantizeFromSystem(t *testing.T) {
	s, ds := trainSmall(t)
	q, err := s.Quantize(2)
	if err != nil {
		t.Fatal(err)
	}
	encoded := s.EncodeAll(ds.TestX)
	accQ := q.Accuracy(encoded, ds.TestY)
	accB := s.Model().Accuracy(encoded, ds.TestY)
	if accQ < accB-0.1 {
		t.Fatalf("2-bit accuracy %.3f far below binary %.3f", accQ, accB)
	}
}

func TestEncodeDeterministic(t *testing.T) {
	s, ds := trainSmall(t)
	a := s.Encode(ds.TestX[0])
	b := s.Encode(ds.TestX[0])
	if !a.Equal(b) {
		t.Fatal("Encode not deterministic")
	}
}

// TestEncodeAllParallelMatchesSerial checks the chunked parallel
// encode and the serial batch encode against per-sample encoding, for
// worker counts below, at and above the chunk count and batch sizes on
// both sides of the batch-major pass length.
func TestEncodeAllParallelMatchesSerial(t *testing.T) {
	s, ds := trainSmall(t)
	for _, n := range []int{0, 1, 15, 16, 17, 33} {
		xs := ds.TestX[:n]
		serial := s.EncodeAll(xs)
		for i, x := range xs {
			if want := s.encoder.Encode(x); !serial[i].Equal(want) {
				t.Fatalf("n=%d sample %d: EncodeAll differs from per-sample encoding", n, i)
			}
		}
		for _, workers := range []int{0, 1, 2, 7, 64} {
			parallel := s.EncodeAllParallel(xs, workers)
			if len(parallel) != n {
				t.Fatalf("n=%d workers=%d: %d results", n, workers, len(parallel))
			}
			for i := range serial {
				if !parallel[i].Equal(serial[i]) {
					t.Fatalf("n=%d workers=%d sample %d: parallel encoding differs", n, workers, i)
				}
			}
		}
	}
}

func TestEncodeAllParallelEmpty(t *testing.T) {
	s, _ := trainSmall(t)
	if got := s.EncodeAllParallel(nil, 4); len(got) != 0 {
		t.Fatal("empty input should yield empty output")
	}
}

func TestPredictWithConfidenceMatchesRecoveryGate(t *testing.T) {
	// The documented contract: PredictWithConfidence reports exactly
	// the softmax confidence the recovery gate computes, so a caller
	// comparing it against T_C predicts the gate's trust decision.
	s, ds := trainSmall(t)
	for i := 0; i < 40; i++ {
		pred, conf := s.PredictWithConfidence(ds.TestX[i])
		q := s.Encode(ds.TestX[i])
		mPred, mConf := s.Model().PredictWithConfidence(q, 0)
		if pred != mPred || conf != mConf {
			t.Fatalf("sample %d: system (%d, %v) != model-at-default-temp (%d, %v)",
				i, pred, conf, mPred, mConf)
		}
	}
}

func TestAttackBurstIsLocalized(t *testing.T) {
	s, _ := trainSmall(t)
	snap := s.Snapshot()
	res, err := s.AttackBurst(0.05, 0.5, 21)
	if err != nil {
		t.Fatal(err)
	}
	if res.BitsFlipped == 0 {
		t.Fatal("burst flipped nothing")
	}
	// A 5% contiguous span of the element space cannot straddle more
	// than two of the per-class vector regions.
	damaged := 0
	for c := 0; c < s.Classes(); c++ {
		if !s.Model().ClassVector(c).Equal(snap[c]) {
			damaged++
		}
	}
	if damaged == 0 {
		t.Fatal("no class vector changed")
	}
	if damaged > 2 {
		t.Fatalf("burst at 5%% span damaged %d of %d classes; not localized", damaged, s.Classes())
	}
	if err := func() error { _, err := s.AttackBurst(1.5, 0.5, 1); return err }(); err == nil {
		t.Fatal("span fraction > 1 accepted")
	}
}

func TestTrainWorkersBitIdentical(t *testing.T) {
	// core.Train now routes through the map-reduce pipeline; any worker
	// count must produce exactly the same deployed model.
	ds := smallData(t)
	ref, err := Train(ds.TrainX, ds.TrainY, ds.Spec.Classes, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 3, 4} {
		cfg := smallConfig()
		cfg.Workers = w
		s, err := Train(ds.TrainX, ds.TrainY, ds.Spec.Classes, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < s.Classes(); c++ {
			if !s.Model().ClassVector(c).Equal(ref.Model().ClassVector(c)) {
				t.Fatalf("workers=%d: class %d deployed vector differs", w, c)
			}
		}
	}
}

func TestForkIsolatesModel(t *testing.T) {
	s, ds := trainSmall(t)
	snap := s.Snapshot()
	fork := s.Fork()
	for c := 0; c < s.Classes(); c++ {
		if !fork.Model().ClassVector(c).Equal(s.Model().ClassVector(c)) {
			t.Fatalf("fork class %d differs before mutation", c)
		}
	}
	// Attacking the fork must not touch the original, and both must
	// keep working (shared encoder is read-only and safe).
	if _, err := fork.AttackTargeted(0.4, 99); err != nil {
		t.Fatal(err)
	}
	for c := range snap {
		if !s.Model().ClassVector(c).Equal(snap[c]) {
			t.Fatalf("original class %d changed by attacking the fork", c)
		}
	}
	orig := s.Accuracy(ds.TestX, ds.TestY)
	forked := fork.Accuracy(ds.TestX, ds.TestY)
	if forked >= orig {
		t.Fatalf("fork accuracy %.3f not degraded below original %.3f after 40%% attack", forked, orig)
	}
	// Recovery on the fork stays private too.
	rec, err := fork.NewRecoverer(recovery.DefaultConfig(), 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range ds.TestX[:50] {
		rec.Observe(fork.Encode(x))
	}
	for c := range snap {
		if !s.Model().ClassVector(c).Equal(snap[c]) {
			t.Fatalf("original class %d changed by recovering the fork", c)
		}
	}
}
