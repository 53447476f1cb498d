package model

import (
	"testing"

	"repro/internal/bitvec"
	"repro/internal/stats"
)

// trainedModel builds a small trained model with deterministic
// pseudo-random class memory.
func trainedModel(t testing.TB, classes, dims int, seed uint64) *Model {
	t.Helper()
	m, err := New(classes, dims)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(seed)
	var encoded []*bitvec.Vector
	var labels []int
	for c := 0; c < classes; c++ {
		for s := 0; s < 8; s++ {
			encoded = append(encoded, bitvec.Random(dims, rng))
			labels = append(labels, c)
		}
	}
	if err := m.Train(encoded, labels); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestFrozenBitIdentical pins Frozen scoring bit-identical to Model
// scoring on the same image: Predict, PredictWithConfidence,
// Similarities, and Confidences, across random queries and after
// in-place corruption + a dirty-class refreeze.
func TestFrozenBitIdentical(t *testing.T) {
	const classes, dims = 7, 2048
	m := trainedModel(t, classes, dims, 1)
	p := NewFrozenPool(classes, dims)
	f := m.Freeze(p)

	rng := stats.NewRNG(2)
	check := func(f *Frozen) {
		t.Helper()
		for i := 0; i < 64; i++ {
			q := bitvec.Random(dims, rng)
			if got, want := f.Predict(q), m.Predict(q); got != want {
				t.Fatalf("query %d: frozen Predict %d, model %d", i, got, want)
			}
			gc, gconf := f.PredictWithConfidence(q, 0)
			wc, wconf := m.PredictWithConfidence(q, 0)
			if gc != wc || gconf != wconf {
				t.Fatalf("query %d: frozen (%d,%v), model (%d,%v)", i, gc, gconf, wc, wconf)
			}
			gs := make([]float64, classes)
			ws := make([]float64, classes)
			f.SimilaritiesInto(gs, q)
			m.view().SimilaritiesInto(ws, q)
			for c := range gs {
				if gs[c] != ws[c] {
					t.Fatalf("query %d class %d: similarity %v vs %v", i, c, gs[c], ws[c])
				}
			}
			f.ConfidencesInto(gs, q, 80)
			m.view().ConfidencesInto(ws, q, 80)
			for c := range gs {
				if gs[c] != ws[c] {
					t.Fatalf("query %d class %d: confidence %v vs %v", i, c, gs[c], ws[c])
				}
			}
		}
	}
	check(f)

	// Corrupt one class in place, refreeze only it, and re-check.
	m.ClassVector(3).Flip(17)
	m.ClassVector(3).Flip(900)
	f2 := m.Refreeze(f, p, []int{3})
	check(f2)

	// The stale image must still show the pre-corruption bits.
	if f.ClassVector(3).Get(17) == m.ClassVector(3).Get(17) {
		t.Fatal("refreeze mutated the previous frozen image")
	}
	// Clean classes are shared, dirty ones are not.
	for c := 0; c < classes; c++ {
		shared := f.ClassVector(c) == f2.ClassVector(c)
		if c == 3 && shared {
			t.Fatal("dirty class 3 still shared after refreeze")
		}
		if c != 3 && !shared {
			t.Fatalf("clean class %d was cloned by a dirty refreeze", c)
		}
	}
}

// TestFrozenAccuracyParallel pins the frozen accuracy evaluation to
// the model's at every worker count.
func TestFrozenAccuracyParallel(t *testing.T) {
	const classes, dims = 5, 1024
	m := trainedModel(t, classes, dims, 3)
	f := m.Freeze(NewFrozenPool(classes, dims))
	rng := stats.NewRNG(4)
	qs := make([]*bitvec.Vector, 200)
	ys := make([]int, len(qs))
	for i := range qs {
		qs[i] = bitvec.Random(dims, rng)
		ys[i] = i % classes
	}
	want := m.AccuracyParallel(qs, ys, 0)
	for _, workers := range []int{1, 2, 4, 9} {
		if got := f.AccuracyParallel(qs, ys, workers); got != want {
			t.Fatalf("workers=%d: frozen accuracy %v, model %v", workers, got, want)
		}
	}
}

// TestFrozenPoolRecycle exercises the forward-flow reclamation
// invariant directly: after a publish chain retires an image, exactly
// its private (non-shared) vectors return to the pool, and reusing
// them never aliases a live epoch's memory.
func TestFrozenPoolRecycle(t *testing.T) {
	const classes, dims = 4, 512
	m := trainedModel(t, classes, dims, 5)
	c := NewEpochChain(m)

	// Publish a long run of single-class updates with no readers: the
	// backlog must stay drained and each superseded epoch recycled.
	for i := 0; i < 100; i++ {
		cls := i % classes
		m.ClassVector(cls).Flip(i % dims)
		c.Publish(m, []int{cls})
		e := c.Acquire()
		for k := 0; k < classes; k++ {
			if got, want := e.Frozen().ClassVector(k).Hamming(m.ClassVector(k)), 0; got != want {
				t.Fatalf("publish %d: class %d diverges from live model by %d bits", i, k, got)
			}
		}
		e.Release()
	}
	st := c.Stats()
	if st.Published != 101 {
		t.Fatalf("published %d epochs, want 101", st.Published)
	}
	if st.Recycled != 100 {
		t.Fatalf("recycled %d epochs, want 100", st.Recycled)
	}
	if st.Backlog != 0 {
		t.Fatalf("backlog %d with no readers, want 0", st.Backlog)
	}
}

// TestFrozenPoolPinnedReader verifies the grace period: an epoch held
// by a reader is not recycled (its image stays intact through later
// publishes), and reclamation resumes once it releases.
func TestFrozenPoolPinnedReader(t *testing.T) {
	const classes, dims = 3, 512
	m := trainedModel(t, classes, dims, 6)
	c := NewEpochChain(m)

	pinned := c.Acquire()
	want := make([]*bitvec.Vector, classes)
	for k := range want {
		want[k] = pinned.Frozen().ClassVector(k).Clone()
	}
	for i := 0; i < 50; i++ {
		cls := i % classes
		m.ClassVector(cls).Flip(i)
		c.Publish(m, []int{cls})
	}
	if got := c.Stats().Backlog; got == 0 {
		t.Fatal("pinned epoch was reclaimed while held")
	}
	for k := range want {
		if pinned.Frozen().ClassVector(k).Hamming(want[k]) != 0 {
			t.Fatalf("pinned epoch's class %d image changed under the reader", k)
		}
	}
	pinned.Release()
	m.ClassVector(0).Flip(0)
	c.Publish(m, []int{0}) // next publish drains the backlog
	if got := c.Stats().Backlog; got != 0 {
		t.Fatalf("backlog %d after release + publish, want 0", got)
	}
}

// TestScoringAllocFree pins the steady-state scorer at zero allocations
// on every backend: the live views build on the stack, and LogHD's
// decode table is a field, not rebuilt per call.
func TestScoringAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	const classes, dims = 6, 1024
	m := trainedModel(t, classes, dims, 7)
	l, err := CompressLogHD(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	q := bitvec.Random(dims, stats.NewRNG(8))
	type predictor interface {
		Predict(q *bitvec.Vector) int
		PredictWithConfidence(q *bitvec.Vector, temperature float64) (int, float64)
	}
	for name, p := range map[string]predictor{
		"model":        m,
		"loghd":        l,
		"frozen-model": m.Freeze(NewFrozenPool(classes, dims)),
		"frozen-loghd": l.Freeze(l.pool),
	} {
		if n := testing.AllocsPerRun(100, func() { p.Predict(q) }); n != 0 {
			t.Errorf("%s: Predict allocates %v per call", name, n)
		}
		if n := testing.AllocsPerRun(100, func() { p.PredictWithConfidence(q, 0) }); n != 0 {
			t.Errorf("%s: PredictWithConfidence allocates %v per call", name, n)
		}
	}
}
