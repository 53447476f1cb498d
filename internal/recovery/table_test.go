package recovery

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/hdc/model"
	"repro/internal/stats"
)

// observeRef is the chunk contest as one SimilarityRange call per
// (chunk, rival class), run over the recoverer's own state with the
// same substitution; Observe must match it exactly.
func observeRef(r *Recoverer, q *bitvec.Vector) (pred int, updated bool) {
	r.stats.Queries++
	pred, conf := r.model.PredictWithConfidence(q, 0)
	if conf < r.cfg.ConfidenceThreshold {
		return pred, false
	}
	r.stats.Trusted++
	classVec := r.model.ClassVector(pred)
	source := r.substitutionSource(pred, q)
	for c := 0; c < r.cfg.Chunks; c++ {
		lo, hi := r.bounds[c], r.bounds[c+1]
		r.stats.ChunksChecked++
		guard := 0.0
		if r.cfg.GuardZ > 0 {
			guard = r.cfg.GuardZ / (2 * math.Sqrt(float64(hi-lo)))
		}
		own := q.SimilarityRange(classVec, lo, hi)
		faulty := false
		for other := 0; other < r.model.Classes(); other++ {
			if other != pred && q.SimilarityRange(r.model.ClassVector(other), lo, hi) > own+guard {
				faulty = true
				break
			}
		}
		if faulty {
			r.stats.FaultyChunks++
			r.stats.BitsSubstituted += classVec.SubstituteRange(source, lo, hi, r.cfg.SubstitutionRate, r.rng)
			updated = true
		}
	}
	return pred, updated
}

// isoletShaped trains a 26-class model at D=10,000 over correlated
// prototypes, damages a burst in one chunk-sized range of every third
// class, and returns it with a query stream drawn from the prototypes.
func isoletShaped(t testing.TB, n int) (*model.Model, []*bitvec.Vector) {
	t.Helper()
	const k, dims = 26, 10000
	rng := stats.NewRNG(31)
	base := bitvec.Random(dims, rng)
	protos := make([]*bitvec.Vector, k)
	for c := range protos {
		protos[c] = base.Clone()
		protos[c].FlipBernoulli(0.06, rng)
	}
	draw := func(n int) ([]*bitvec.Vector, []int) {
		xs, ys := make([]*bitvec.Vector, n), make([]int, n)
		for i := range xs {
			c := rng.IntN(k)
			xs[i] = protos[c].Clone()
			xs[i].FlipBernoulli(0.02, rng)
			ys[i] = c
		}
		return xs, ys
	}
	m, err := model.New(k, dims)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Train(draw(10 * k)); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < k; c += 3 {
		lo := rng.IntN(dims - 1200)
		burst := m.ClassVector(c).Slice(lo, lo+1200)
		burst.FlipBernoulli(0.5, rng)
		m.ClassVector(c).OverwriteSlice(burst, lo)
	}
	stream, _ := draw(n)
	return m, stream
}

func deployedBytes(t *testing.T, m *model.Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.WriteDeployed(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestObserveMatchesPerChunkContests pins the (class, chunk) table:
// on a damaged ISOLET-shaped model, Observe's predictions, repair
// flags, counters and rewritten model equal those of the per-chunk
// SimilarityRange contests with the same substitution stream.
func TestObserveMatchesPerChunkContests(t *testing.T) {
	m, stream := isoletShaped(t, 400)
	for _, chunks := range []int{10, 13} {
		for _, p := range []float64{0.25, 1} {
			cfg := DefaultConfig()
			cfg.Chunks, cfg.SubstitutionRate = chunks, p
			got, want := m.Clone(), m.Clone()
			rg, err := New(got, cfg, 9)
			if err != nil {
				t.Fatal(err)
			}
			rw, err := New(want, cfg, 9)
			if err != nil {
				t.Fatal(err)
			}
			for i, q := range stream {
				gp, gu := rg.Observe(q)
				wp, wu := observeRef(rw, q)
				if gp != wp || gu != wu {
					t.Fatalf("chunks=%d p=%v query %d: Observe (%d, %v), reference (%d, %v)",
						chunks, p, i, gp, gu, wp, wu)
				}
			}
			st := rg.Stats()
			if st != rw.stats {
				t.Fatalf("chunks=%d p=%v: stats %+v, reference %+v", chunks, p, st, rw.stats)
			}
			if !bytes.Equal(deployedBytes(t, got), deployedBytes(t, want)) {
				t.Fatalf("chunks=%d p=%v: model bytes differ from the reference", chunks, p)
			}
			if st.Trusted == 0 || st.FaultyChunks == 0 || st.FaultyChunks == st.ChunksChecked {
				t.Fatalf("chunks=%d p=%v: stream does not exercise both contest outcomes: %+v", chunks, p, st)
			}
		}
	}
}
