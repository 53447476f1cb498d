package encoding

import (
	"math"
	"testing"

	"repro/internal/stats"
)

func TestRecordEncoderDeterministic(t *testing.T) {
	e1, err := NewRecordEncoder(2000, 8, unitNormalizer(10), 99)
	if err != nil {
		t.Fatal(err)
	}
	e2, _ := NewRecordEncoder(2000, 8, unitNormalizer(10), 99)
	f := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	if !e1.Encode(f).Equal(e2.Encode(f)) {
		t.Fatal("same config encoders disagree")
	}
	if !e1.Encode(f).Equal(e1.Encode(f)) {
		t.Fatal("encoder not deterministic")
	}
}

func TestRecordEncoderValidation(t *testing.T) {
	if _, err := NewRecordEncoder(0, 8, unitNormalizer(5), 1); err == nil {
		t.Fatal("dims=0 accepted")
	}
	if _, err := NewRecordEncoder(100, 1, unitNormalizer(5), 1); err == nil {
		t.Fatal("levels=1 accepted")
	}
}

func TestRecordEncoderFeatureCountPanics(t *testing.T) {
	e, _ := NewRecordEncoder(100, 8, unitNormalizer(5), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.Encode([]float64{1, 2})
}

func TestRecordEncoderSimilarInputsSimilarOutputs(t *testing.T) {
	e, _ := NewRecordEncoder(10000, 32, unitNormalizer(20), 5)
	rng := stats.NewRNG(1)
	base := make([]float64, 20)
	for i := range base {
		base[i] = rng.Float64()
	}
	// A slightly perturbed input must encode near the original...
	near := append([]float64(nil), base...)
	near[3] += 0.02
	// ...while an unrelated input encodes near-orthogonally.
	far := make([]float64, 20)
	for i := range far {
		far[i] = rng.Float64()
	}
	hBase, hNear, hFar := e.Encode(base), e.Encode(near), e.Encode(far)
	sNear := hBase.Similarity(hNear)
	sFar := hBase.Similarity(hFar)
	if sNear < 0.9 {
		t.Fatalf("near input similarity %v, want > 0.9", sNear)
	}
	if sFar > sNear-0.1 {
		t.Fatalf("far input similarity %v not clearly below near %v", sFar, sNear)
	}
}

func TestRecordEncoderSeedsProduceDifferentSpaces(t *testing.T) {
	f := []float64{0.3, 0.6, 0.9}
	a, _ := NewRecordEncoder(10000, 8, unitNormalizer(3), 1)
	b, _ := NewRecordEncoder(10000, 8, unitNormalizer(3), 2)
	if s := a.Encode(f).Similarity(b.Encode(f)); math.Abs(s-0.5) > 0.05 {
		t.Fatalf("different seeds gave similarity %v, want ~0.5", s)
	}
}

func TestRecordEncoderDimensionsAccessors(t *testing.T) {
	e, _ := NewRecordEncoder(4096, 8, unitNormalizer(7), 1)
	if e.Dimensions() != 4096 || e.Features() != 7 {
		t.Fatalf("accessors wrong: %d, %d", e.Dimensions(), e.Features())
	}
}

func TestNGramEncoderBasics(t *testing.T) {
	e, err := NewNGramEncoder(4096, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	seq := []int{1, 2, 3, 4, 5, 6}
	if !e.EncodeSequence(seq).Equal(e.EncodeSequence(seq)) {
		t.Fatal("n-gram encoding not deterministic")
	}
	// Same multiset, different order must differ (order sensitivity).
	shuffled := []int{6, 5, 4, 3, 2, 1}
	if e.EncodeSequence(seq).Equal(e.EncodeSequence(shuffled)) {
		t.Fatal("n-gram encoder ignored order")
	}
}

func TestNGramEncoderShortSequence(t *testing.T) {
	e, _ := NewNGramEncoder(2048, 4, 7)
	h := e.EncodeSequence([]int{1, 2})
	if h.Len() != 2048 {
		t.Fatalf("short-sequence encoding has wrong dims %d", h.Len())
	}
}

func TestNGramEncoderSharedPrefixSimilar(t *testing.T) {
	e, _ := NewNGramEncoder(10000, 2, 7)
	a := e.EncodeSequence([]int{1, 2, 3, 4, 5, 6, 7, 8})
	b := e.EncodeSequence([]int{1, 2, 3, 4, 5, 6, 7, 9})
	c := e.EncodeSequence([]int{11, 12, 13, 14, 15, 16, 17, 18})
	if a.Similarity(b) <= a.Similarity(c) {
		t.Fatalf("shared-prefix similarity %v not above disjoint %v",
			a.Similarity(b), a.Similarity(c))
	}
}

func TestNGramEncoderValidation(t *testing.T) {
	if _, err := NewNGramEncoder(100, 0, 1); err == nil {
		t.Fatal("n=0 accepted")
	}
	e, _ := NewNGramEncoder(100, 2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on empty sequence")
		}
	}()
	e.EncodeSequence(nil)
}

func TestNormalizerFitApply(t *testing.T) {
	data := [][]float64{
		{0, 10, 5},
		{10, 20, 5},
		{5, 15, 5},
	}
	n, err := FitNormalizer(data)
	if err != nil {
		t.Fatal(err)
	}
	if n.Features() != 3 {
		t.Fatalf("Features = %d", n.Features())
	}
	out := n.Apply([]float64{5, 15, 5})
	want := []float64{0.5, 0.5, 0.5} // constant feature maps to 0.5 too
	for i := range want {
		if math.Abs(out[i]-want[i]) > 1e-12 {
			t.Fatalf("Apply = %v", out)
		}
	}
	clamped := n.Apply([]float64{-100, 100, 5})
	if clamped[0] != 0 || clamped[1] != 1 {
		t.Fatalf("clamping failed: %v", clamped)
	}
}

func TestNormalizerErrors(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	fromRanges := func(mins, maxs []float64) func() error {
		return func() error { _, err := NormalizerFromRanges(mins, maxs); return err }
	}
	fit := func(data ...[]float64) func() error {
		return func() error { _, err := FitNormalizer(data); return err }
	}
	for name, build := range map[string]func() error{
		"empty data":           fit(),
		"ragged data":          fit([]float64{1, 2}, []float64{1}),
		"no ranges":            fromRanges(nil, nil),
		"mismatched ranges":    fromRanges([]float64{0}, []float64{1, 1}),
		"min above max":        fromRanges([]float64{0, 2}, []float64{1, 1}),
		"NaN min":              fromRanges([]float64{nan, 0}, []float64{1, 1}),
		"NaN max":              fromRanges([]float64{0, 0}, []float64{1, nan}),
		"-Inf min":             fromRanges([]float64{0, -inf}, []float64{1, 1}),
		"+Inf max":             fromRanges([]float64{0, 0}, []float64{inf, 1}),
		"overflowing span":     fromRanges([]float64{-1e308, 0}, []float64{1e308, 1}),
		"fit infinite value":   fit([]float64{0, 1}, []float64{inf, 2}),
		"fit all-NaN feature":  fit([]float64{nan, 1}, []float64{nan, 2}),
		"fit overflowing span": fit([]float64{-1e308, 1}, []float64{1e308, 2}),
	} {
		if build() == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// The widest finite span is still a usable range.
	if _, err := NormalizerFromRanges([]float64{-1e307, -math.MaxFloat64}, []float64{1e307, 0}); err != nil {
		t.Fatalf("finite span refused: %v", err)
	}
}

func TestNormalizerApplyPanicsOnMismatch(t *testing.T) {
	n, _ := FitNormalizer([][]float64{{1, 2}})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	n.Apply([]float64{1})
}
