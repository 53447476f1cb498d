package model

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/bitvec"
	"repro/internal/stats"
)

// trainedPair builds two identically-trained models (bundle only, no
// retrain) over the same encoded data, for sequential-vs-parallel
// comparisons.
func trainedPair(t *testing.T) (seq, par *Model, tr []*bitvec.Vector, try []int) {
	t.Helper()
	tr, _, try, _ = encodeDataset(t, smallSpec(), 2048)
	seq, _ = New(12, 2048)
	if err := seq.Train(tr, try); err != nil {
		t.Fatal(err)
	}
	par, _ = New(12, 2048)
	if err := par.Train(tr, try); err != nil {
		t.Fatal(err)
	}
	return seq, par, tr, try
}

func assertSameDeployed(t *testing.T, want, got *Model, label string) {
	t.Helper()
	for c := 0; c < want.Classes(); c++ {
		if !want.ClassVector(c).Equal(got.ClassVector(c)) {
			t.Fatalf("%s: class %d deployed vector differs from sequential", label, c)
		}
	}
}

func assertSameCounters(t *testing.T, want, got *Model, label string) {
	t.Helper()
	for c := 0; c < want.Classes(); c++ {
		wc, gc := want.counters[c], got.counters[c]
		if wc.Adds() != gc.Adds() {
			t.Fatalf("%s: class %d Adds %d != sequential %d", label, c, gc.Adds(), wc.Adds())
		}
		for i := 0; i < wc.Len(); i++ {
			if wc.Tally(i) != gc.Tally(i) {
				t.Fatalf("%s: class %d tally[%d] %d != sequential %d", label, c, i, gc.Tally(i), wc.Tally(i))
			}
		}
	}
}

// Worker counts the equivalence tests sweep: the degenerate inline
// path, a fixed multi-worker count that does not divide typical sample
// counts evenly (uneven shards), and whatever this machine has.
func workerCounts() []int {
	ws := []int{1, 4, 7}
	if n := runtime.NumCPU(); n > 1 && n != 4 && n != 7 {
		ws = append(ws, n)
	}
	return ws
}

func TestTrainParallelBitIdentical(t *testing.T) {
	tr, _, try, _ := encodeDataset(t, smallSpec(), 2048)
	seq, _ := New(12, 2048)
	if err := seq.Train(tr, try); err != nil {
		t.Fatal(err)
	}
	for _, w := range workerCounts() {
		par, _ := New(12, 2048)
		if err := par.TrainParallel(tr, try, w); err != nil {
			t.Fatal(err)
		}
		label := "TrainParallel(workers=" + itoa(w) + ")"
		assertSameDeployed(t, seq, par, label)
		assertSameCounters(t, seq, par, label)
	}
}

func TestRetrainParallelBitIdentical(t *testing.T) {
	seq, _, tr, try := trainedPair(t)
	const epochs = 5
	wantMistakes, err := seq.Retrain(tr, try, epochs)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workerCounts() {
		_, par, _, _ := trainedPair(t)
		gotMistakes, err := par.RetrainParallel(tr, try, epochs, w)
		if err != nil {
			t.Fatal(err)
		}
		label := "RetrainParallel(workers=" + itoa(w) + ")"
		if gotMistakes != wantMistakes {
			t.Fatalf("%s: final-epoch mistakes %d != sequential %d", label, gotMistakes, wantMistakes)
		}
		assertSameDeployed(t, seq, par, label)
		assertSameCounters(t, seq, par, label)
	}
}

// Per-epoch mistake counts must match too, not just the final epoch —
// this pins the frozen-epoch-start-model semantics.
func TestRetrainParallelPerEpochMistakesMatch(t *testing.T) {
	seq, par, tr, try := trainedPair(t)
	for e := 0; e < 4; e++ {
		want, err := seq.Retrain(tr, try, 1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := par.RetrainParallel(tr, try, 1, 4)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("epoch %d: parallel mistakes %d != sequential %d", e, got, want)
		}
	}
	assertSameDeployed(t, seq, par, "per-epoch")
}

func TestRetrainParallelUnevenShards(t *testing.T) {
	// A sample count that is prime guarantees every multi-worker split
	// is uneven.
	tr, _, try, _ := encodeDataset(t, smallSpec(), 1024)
	tr, try = tr[:199], try[:199]
	seq, _ := New(12, 1024)
	if err := seq.Train(tr, try); err != nil {
		t.Fatal(err)
	}
	par := seq.Clone()
	want, err := seq.Retrain(tr, try, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := par.RetrainParallel(tr, try, 3, 6)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("mistakes %d != %d", got, want)
	}
	assertSameDeployed(t, seq, par, "uneven shards")
	assertSameCounters(t, seq, par, "uneven shards")
}

func TestTrainParallelErrors(t *testing.T) {
	rng := stats.NewRNG(3)
	m, _ := New(3, 64)
	v := bitvec.Random(64, rng)
	if err := m.TrainParallel(nil, nil, 2); err == nil {
		t.Fatal("empty training set accepted")
	}
	if err := m.TrainParallel([]*bitvec.Vector{v}, []int{0, 1}, 2); err == nil {
		t.Fatal("length mismatch accepted")
	}
	// Bad label in a later shard: the error must surface and the model
	// counters must be untouched (deltas discarded, not merged).
	good := make([]*bitvec.Vector, 8)
	labels := make([]int, 8)
	for i := range good {
		good[i] = bitvec.Random(64, rng)
		labels[i] = i % 3
	}
	labels[6] = 99
	if err := m.TrainParallel(good, labels, 4); err == nil {
		t.Fatal("out-of-range label accepted")
	}
	for c := 0; c < 3; c++ {
		if m.counters[c].Adds() != 0 {
			t.Fatalf("class %d counter mutated by failed TrainParallel", c)
		}
	}
	if err := m.TrainParallel([]*bitvec.Vector{bitvec.Random(32, rng)}, []int{0}, 2); err == nil {
		t.Fatal("wrong dimensionality accepted")
	}
}

func TestRetrainParallelBeforeTrain(t *testing.T) {
	m, _ := New(2, 64)
	if _, err := m.RetrainParallel(nil, nil, 1, 2); err == nil {
		t.Fatal("RetrainParallel before Train accepted")
	}
}

func TestModelCloneIndependent(t *testing.T) {
	seq, _, tr, try := trainedPair(t)
	snap := seq.SnapshotDeployed()
	clone := seq.Clone()
	assertSameDeployed(t, seq, clone, "clone")
	assertSameCounters(t, seq, clone, "clone")
	// Mutating the clone (retrain + direct bit damage) must leave the
	// original untouched.
	if _, err := clone.RetrainParallel(tr, try, 2, 2); err != nil {
		t.Fatal(err)
	}
	clone.ClassVector(0).Flip(0)
	for c := range snap {
		if !seq.ClassVector(c).Equal(snap[c]) {
			t.Fatalf("class %d of original changed by clone mutation", c)
		}
	}
}

// The map phase must be allocation-free in steady state at workers=1:
// delta counters and scoring buffers come from the pool, predictions
// run in-place, and the RetrainDelta is returned by value. (Binarize
// inside ApplyRetrain intentionally allocates fresh deployed vectors —
// external holders of ClassVector aliases rely on old vectors staying
// valid — so the assertion covers AccumulateRetrain only, and the
// accumulated delta is discarded back to the pool each round.)
func TestAccumulateRetrainZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	seq, _, tr, try := trainedPair(t)
	dep := seq.SnapshotDeployed()
	// Warm the pool.
	rd, err := seq.AccumulateRetrain(dep, tr, try, 1)
	if err != nil {
		t.Fatal(err)
	}
	seq.DiscardRetrain(rd)
	allocs := testing.AllocsPerRun(10, func() {
		rd, err := seq.AccumulateRetrain(dep, tr, try, 1)
		if err != nil {
			t.Fatal(err)
		}
		seq.DiscardRetrain(rd)
	})
	if allocs != 0 {
		t.Fatalf("AccumulateRetrain(workers=1) allocates %.1f/op, want 0", allocs)
	}
}

// TestRetrainParallelSpeedup asserts the wall-clock payoff on real
// multi-core hardware: ≥3× at NumCPU workers over the sequential
// path. It skips where the measurement is meaningless — under 4 cores
// (the 1-vCPU CI containers; see EXPERIMENTS.md for their honest
// overhead numbers), under -race (instrumentation serializes the
// workers), and in -short runs.
func TestRetrainParallelSpeedup(t *testing.T) {
	workers := runtime.NumCPU()
	if workers < 4 {
		t.Skipf("need >=4 cores for a speedup measurement, have %d", workers)
	}
	if raceEnabled {
		t.Skip("race instrumentation distorts timing")
	}
	if testing.Short() {
		t.Skip("wall-clock measurement")
	}
	tr, _, try, _ := encodeDataset(t, smallSpec(), 4096)
	// Replicate the encoded samples so each epoch is long enough to
	// time reliably (~4000 samples).
	var xs []*bitvec.Vector
	var ys []int
	for r := 0; r < 16; r++ {
		xs = append(xs, tr...)
		ys = append(ys, try...)
	}
	const epochs = 3
	base, _ := New(12, 4096)
	if err := base.Train(xs, ys); err != nil {
		t.Fatal(err)
	}
	best := func(fn func(m *Model)) time.Duration {
		min := time.Duration(1<<63 - 1)
		for rep := 0; rep < 3; rep++ {
			m := base.Clone()
			start := time.Now()
			fn(m)
			if d := time.Since(start); d < min {
				min = d
			}
		}
		return min
	}
	seq := best(func(m *Model) {
		if _, err := m.Retrain(xs, ys, epochs); err != nil {
			t.Fatal(err)
		}
	})
	par := best(func(m *Model) {
		if _, err := m.RetrainParallel(xs, ys, epochs, workers); err != nil {
			t.Fatal(err)
		}
	})
	speedup := float64(seq) / float64(par)
	t.Logf("sequential %v, %d workers %v: %.2fx", seq, workers, par, speedup)
	if speedup < 3 {
		t.Fatalf("RetrainParallel speedup %.2fx at %d workers, want >=3x", speedup, workers)
	}
}

// itoa avoids strconv in test labels (mirrors the root bench helper).
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
