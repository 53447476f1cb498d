package model

import (
	"math"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/stats"
)

// referenceSimilarities is the original per-class scoring loop, kept
// as the behavioural reference for the fused HammingMany path.
func referenceSimilarities(m *Model, q *bitvec.Vector) []float64 {
	out := make([]float64, m.classes)
	for c, cv := range m.deployed {
		out[c] = q.Similarity(cv)
	}
	return out
}

// similarities scores q against the live model through its view.
func similarities(m *Model, q *bitvec.Vector) []float64 {
	out := make([]float64, m.Classes())
	m.view().SimilaritiesInto(out, q)
	return out
}

// confidences is similarities' softmax counterpart.
func confidences(m *Model, q *bitvec.Vector, temperature float64) []float64 {
	out := make([]float64, m.Classes())
	m.view().ConfidencesInto(out, q, temperature)
	return out
}

func trainedKernelModel(t *testing.T, classes, dims, samples int, seed uint64) (*Model, []*bitvec.Vector) {
	t.Helper()
	rng := stats.NewRNG(seed)
	protos := make([]*bitvec.Vector, classes)
	for c := range protos {
		protos[c] = bitvec.Random(dims, rng)
	}
	var xs []*bitvec.Vector
	var ys []int
	for i := 0; i < samples; i++ {
		c := i % classes
		v := protos[c].Clone()
		v.FlipBernoulli(0.2, rng)
		xs, ys = append(xs, v), append(ys, c)
	}
	m, err := New(classes, dims)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Train(xs, ys); err != nil {
		t.Fatal(err)
	}
	// Queries include near-ties: vectors between two prototypes.
	queries := append([]*bitvec.Vector{}, xs[:20]...)
	for i := 0; i < 20; i++ {
		v := protos[i%classes].Clone()
		v.OverwriteRange(protos[(i+1)%classes], 0, dims/2)
		queries = append(queries, v)
	}
	return m, queries
}

// TestFusedScoringMatchesReference proves the scoring tentpole
// equivalence: Similarities, Predict, Confidences, and
// PredictWithConfidence through the fused kernel are bit-identical to
// the per-class reference loop.
func TestFusedScoringMatchesReference(t *testing.T) {
	for _, dims := range []int{640, 4096, 10000} {
		m, queries := trainedKernelModel(t, 6, dims, 120, uint64(dims))
		for qi, q := range queries {
			ref := referenceSimilarities(m, q)
			got := similarities(m, q)
			for c := range ref {
				if got[c] != ref[c] {
					t.Fatalf("dims=%d q=%d class %d: fused similarity %v != reference %v",
						dims, qi, c, got[c], ref[c])
				}
			}
			if want := stats.ArgMax(ref); m.Predict(q) != want {
				t.Fatalf("dims=%d q=%d: fused Predict %d != reference %d", dims, qi, m.Predict(q), want)
			}
			refConf := make([]float64, len(ref))
			for c := range ref {
				refConf[c] = ref[c] * DefaultConfidenceTemperature
			}
			stats.SoftmaxInto(refConf, refConf)
			gotConf := confidences(m, q, 0)
			for c := range refConf {
				if gotConf[c] != refConf[c] {
					t.Fatalf("dims=%d q=%d class %d: fused confidence %v != reference %v",
						dims, qi, c, gotConf[c], refConf[c])
				}
			}
			class, conf := m.PredictWithConfidence(q, 0)
			if class != stats.ArgMax(refConf) || conf != refConf[class] {
				t.Fatalf("dims=%d q=%d: PredictWithConfidence (%d, %v) != reference (%d, %v)",
					dims, qi, class, conf, stats.ArgMax(refConf), refConf[stats.ArgMax(refConf)])
			}
		}
	}
}

// TestScoringScratchIsolation runs interleaved scoring calls and
// verifies pooled scratch never leaks state between them.
func TestScoringScratchIsolation(t *testing.T) {
	m, queries := trainedKernelModel(t, 4, 2048, 80, 17)
	q1, q2 := queries[0], queries[1]
	want1 := similarities(m, q1)
	want2 := similarities(m, q2)
	for i := 0; i < 50; i++ {
		s1 := make([]float64, m.Classes())
		s2 := make([]float64, m.Classes())
		m.view().SimilaritiesInto(s1, q1)
		m.view().SimilaritiesInto(s2, q2)
		for c := range want1 {
			if s1[c] != want1[c] || s2[c] != want2[c] {
				t.Fatalf("iteration %d: pooled scratch corrupted scores", i)
			}
		}
	}
}

func TestSimilaritiesIntoValidatesShape(t *testing.T) {
	m, queries := trainedKernelModel(t, 3, 512, 30, 23)
	defer func() {
		if recover() == nil {
			t.Fatal("SimilaritiesInto accepted a wrong-sized dst")
		}
	}()
	m.view().SimilaritiesInto(make([]float64, 2), queries[0])
}

// TestConfidencesIntoMatchesConfidences checks ConfidencesInto against
// a softmax of the reference similarities scaled by the temperature,
// across temperatures including the default (0).
func TestConfidencesIntoMatchesConfidences(t *testing.T) {
	m, queries := trainedKernelModel(t, 4, 1000, 40, 41)
	for _, temp := range []float64{0, 1, 50, 120} {
		scale := temp
		if scale <= 0 {
			scale = DefaultConfidenceTemperature
		}
		for _, q := range queries[:5] {
			want := referenceSimilarities(m, q)
			for c := range want {
				want[c] *= scale
			}
			stats.SoftmaxInto(want, want)
			dst := make([]float64, m.Classes())
			m.view().ConfidencesInto(dst, q, temp)
			sum := 0.0
			for c := range want {
				if dst[c] != want[c] {
					t.Fatalf("temp=%v class %d: ConfidencesInto %v != reference %v", temp, c, dst[c], want[c])
				}
				sum += dst[c]
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("temp=%v: confidences sum to %v", temp, sum)
			}
		}
	}
}

// TestPredictIdenticalAfterInPlaceCorruption checks the fused kernel
// tracks in-place mutations of the deployed vectors (the attack +
// recovery write pattern) with no stale caching.
func TestPredictIdenticalAfterInPlaceCorruption(t *testing.T) {
	m, queries := trainedKernelModel(t, 5, 4096, 100, 31)
	rng := stats.NewRNG(77)
	for round := 0; round < 3; round++ {
		for c := 0; c < m.Classes(); c++ {
			m.ClassVector(c).FlipBernoulli(0.08, rng)
		}
		for _, q := range queries {
			ref := referenceSimilarities(m, q)
			if want, got := stats.ArgMax(ref), m.Predict(q); got != want {
				t.Fatalf("round %d: post-corruption Predict %d != reference %d", round, got, want)
			}
		}
	}
}
