package regress

import (
	"math"
	"testing"

	"repro/internal/attack"
	"repro/internal/bitvec"
	"repro/internal/hdc/encoding"
	"repro/internal/stats"
)

// syntheticRegression builds an encoded regression problem: targets
// are a smooth nonlinear function of a few raw features.
func syntheticRegression(t *testing.T, dims, nTrain, nTest int, seed uint64) (tr, te []*bitvec.Vector, try, tey []float64) {
	t.Helper()
	const features = 12
	zeros, ones := make([]float64, features), make([]float64, features)
	for j := range ones {
		ones[j] = 1
	}
	norm, err := encoding.NormalizerFromRanges(zeros, ones)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := encoding.NewRecordEncoder(dims, 16, norm, seed)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(seed ^ 0xABCD)
	gen := func(n int) ([]*bitvec.Vector, []float64) {
		hs := make([]*bitvec.Vector, n)
		ys := make([]float64, n)
		for i := range hs {
			x := make([]float64, features)
			for j := range x {
				x[j] = rng.Float64()
			}
			hs[i] = enc.Encode(x)
			ys[i] = 3*x[0] + 2*math.Sin(3*x[1]) - x[2]*x[3] + 0.05*rng.NormFloat64()
		}
		return hs, ys
	}
	tr, try = gen(nTrain)
	te, tey = gen(nTest)
	return tr, te, try, tey
}

func TestTrainValidation(t *testing.T) {
	if _, err := Train(nil, nil, Config{}); err == nil {
		t.Fatal("empty accepted")
	}
	rng := stats.NewRNG(1)
	h := bitvec.Random(64, rng)
	if _, err := Train([]*bitvec.Vector{h}, []float64{1, 2}, Config{}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := Train([]*bitvec.Vector{h, h}, []float64{1, 1}, Config{}); err == nil {
		t.Fatal("constant targets accepted")
	}
	if _, err := Train([]*bitvec.Vector{h, bitvec.New(32)}, []float64{1, 2}, Config{}); err == nil {
		t.Fatal("ragged dims accepted")
	}
}

func TestRegressionFitsNonlinearFunction(t *testing.T) {
	tr, te, try, tey := syntheticRegression(t, 4096, 400, 150, 2)
	r, err := Train(tr, try, Config{Epochs: 30, LearningRate: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	r2 := r.R2(te, tey)
	if r2 < 0.7 {
		t.Fatalf("test R² = %.3f, want > 0.7", r2)
	}
}

func TestPredictionsInTargetRange(t *testing.T) {
	tr, te, try, _ := syntheticRegression(t, 2048, 200, 50, 3)
	r, err := Train(tr, try, Config{})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := try[0], try[0]
	for _, y := range try {
		lo, hi = math.Min(lo, y), math.Max(hi, y)
	}
	for _, h := range te {
		p := r.Predict(h)
		if p < lo-1e-9 || p > hi+1e-9 {
			t.Fatalf("prediction %v outside fitted range [%v, %v]", p, lo, hi)
		}
	}
}

func TestDeployedMatchesFloat(t *testing.T) {
	tr, te, try, tey := syntheticRegression(t, 4096, 300, 100, 4)
	r, err := Train(tr, try, Config{Epochs: 25, LearningRate: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	d := r.Deploy()
	floatMSE := r.MSE(te, tey)
	quantMSE := d.MSE(te, tey)
	if quantMSE > floatMSE*1.5+0.01 {
		t.Fatalf("quantized MSE %.4f far above float %.4f", quantMSE, floatMSE)
	}
}

func TestDeployedAttackRobustness(t *testing.T) {
	// The regression robustness claim: 10% random bit flips on the
	// quantized model raise MSE only moderately — every dimension
	// carries 1/D of the prediction.
	tr, te, try, tey := syntheticRegression(t, 4096, 300, 100, 5)
	r, err := Train(tr, try, Config{Epochs: 25, LearningRate: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	d := r.Deploy()
	cleanMSE := d.MSE(te, tey)

	attacked := d.Clone()
	if _, err := attack.Random(attacked, 0.10, stats.NewRNG(6)); err != nil {
		t.Fatal(err)
	}
	attackedMSE := attacked.MSE(te, tey)

	// Target variance for scale.
	var mean, variance float64
	for _, y := range tey {
		mean += y
	}
	mean /= float64(len(tey))
	for _, y := range tey {
		variance += (y - mean) * (y - mean)
	}
	variance /= float64(len(tey))

	if attackedMSE-cleanMSE > variance/2 {
		t.Fatalf("10%% attack raised MSE %.4f -> %.4f (target variance %.4f)",
			cleanMSE, attackedMSE, variance)
	}
	// The attacked model must still clearly explain the data.
	if attackedMSE > variance {
		t.Fatalf("attacked MSE %.4f worse than predicting the mean (%.4f)", attackedMSE, variance)
	}
}

func TestDeployedImageContract(t *testing.T) {
	tr, _, try, _ := syntheticRegression(t, 1024, 100, 1, 7)
	r, err := Train(tr, try, Config{})
	if err != nil {
		t.Fatal(err)
	}
	d := r.Deploy()
	if d.Elements() != 1024 || d.BitsPerElement() != 8 || d.BitDamageOrder()[0] != 7 {
		t.Fatal("image contract wrong")
	}
	var _ attack.Image = d
}

func TestMSEAndR2EdgeCases(t *testing.T) {
	tr, _, try, _ := syntheticRegression(t, 512, 60, 1, 8)
	r, err := Train(tr, try, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if r.MSE(nil, nil) != 0 || r.R2(nil, nil) != 0 {
		t.Fatal("empty-input metrics should be 0")
	}
	if r.Dimensions() != 512 {
		t.Fatal("Dimensions wrong")
	}
}
