package main

import (
	"fmt"
	"hash/fnv"
	"math/rand/v2"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/hdc/model"
	"repro/internal/serve"
	"repro/internal/stats"
)

// dims is the hypervector width servehd trains with by default.
const dims = 10000

func loadDataset(name string) (*dataset.Dataset, error) {
	spec, ok := dataset.ByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown dataset %q", name)
	}
	return dataset.Generate(spec)
}

// train builds a model the way servehd does: D=10000, a single pass,
// one seed per model.
func train(ds *dataset.Dataset, seed uint64) (*core.System, error) {
	return core.Train(ds.TrainX, ds.TrainY, ds.Spec.Classes, core.Config{Dimensions: dims, Seed: seed})
}

// rngFor derives an independent stream from the run seed per purpose.
func rngFor(seed uint64, purpose string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, purpose)
	return stats.NewRNG(h.Sum64())
}

// seedFor derives a nonzero program seed (substrate, recovery) from the
// run seed.
func seedFor(seed uint64, purpose string) uint64 {
	return rngFor(seed, purpose).Uint64() | 1
}

// drawBatches draws n request batches of size test-sample indices.
func drawBatches(rng *rand.Rand, n, size, total int) [][]int {
	out := make([][]int, n)
	for b := range out {
		out[b] = make([]int, size)
		for j := range out[b] {
			out[b][j] = rng.IntN(total)
		}
	}
	return out
}

func rows(xs [][]float64, idx []int) [][]float64 {
	out := make([][]float64, len(idx))
	for j, i := range idx {
		out[j] = xs[i]
	}
	return out
}

// hashInts folds index lists into a schedule digest.
func hashInts(lists ...[][]int) uint64 {
	h := fnv.New64a()
	for _, l := range lists {
		for _, b := range l {
			fmt.Fprintln(h, b)
		}
	}
	return h.Sum64()
}

// checkAnswer verifies one answer per sample, each a class in [0,k)
// with a confidence in (1/k, 1], and counts the correct ones.
func checkAnswer(preds []serve.Prediction, idx []int, labels []int, k int) (hits int, err error) {
	if len(preds) != len(idx) {
		return 0, fmt.Errorf("%d predictions for %d samples", len(preds), len(idx))
	}
	for j, p := range preds {
		if p.Class < 0 || p.Class >= k {
			return 0, fmt.Errorf("class %d outside [0,%d)", p.Class, k)
		}
		if !(p.Confidence > 1/float64(k) && p.Confidence <= 1) {
			return 0, fmt.Errorf("confidence %v outside (1/%d, 1]", p.Confidence, k)
		}
		if p.Class == labels[idx[j]] {
			hits++
		}
	}
	return hits, nil
}

// shadowModel is a private fork of a served model. The traced run
// re-encodes and re-scores a request's batch on it, through the fork's
// own epoch chain, to time the encoder and the scorer without touching
// live state.
type shadowModel struct {
	sys   *core.System
	chain *model.EpochChain
	span  string
}

func newShadow(sys *core.System) *shadowModel {
	f := sys.Fork()
	name := "shadow.score"
	if f.Backend() == "loghd" {
		name = "shadow.loghd_score"
	}
	return &shadowModel{sys: f, chain: model.NewEpochChain(f.Freezer()), span: name}
}

func (s *shadowModel) run(tr *tracer, i int64, xs [][]float64) {
	parent := reqSpanID(i)
	var enc []*bitvec.Vector
	tr.time("shadow.encode", parent, i, len(xs), func() { enc = s.sys.EncodeAllParallel(xs, 0) })
	tr.time(s.span, parent, i, len(xs), func() {
		ep := s.chain.Acquire()
		img := ep.Frozen()
		for _, q := range enc {
			img.PredictWithConfidence(q, 0)
		}
		ep.Release()
	})
}

// correct reports, per test sample, whether sys classifies it right.
// Run on a served model before any traffic or fault, it gives the clean
// answers the accuracy floor is taken from.
func correct(sys *core.System, ds *dataset.Dataset) []bool {
	out := make([]bool, len(ds.TestX))
	for j, x := range ds.TestX {
		out[j] = sys.Predict(x) == ds.TestY[j]
	}
	return out
}

// scheduleAccuracy is the clean accuracy over the scheduled batches.
func scheduleAccuracy(correct []bool, batches [][]int) float64 {
	hit, n := 0, 0
	for _, b := range batches {
		for _, j := range b {
			if correct[j] {
				hit++
			}
			n++
		}
	}
	return float64(hit) / float64(n)
}
