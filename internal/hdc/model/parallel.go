package model

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/bitvec"
)

// This file is the map-reduce training pipeline. Bundling is a
// commutative integer accumulation and a Retrain epoch predicts every
// sample against the *epoch-start* deployed model (the sequential code
// only binarizes after the full pass), so one epoch decomposes into a
// pure map — predict each sample, emit ±delta into a private per-worker
// counter set — followed by a counter-merge reduce and a single
// Binarize. Integer addition is exact and order-independent, which
// makes the parallel paths bit-identical to their sequential
// counterparts: same deployed vectors, same mistake counts, for any
// worker count and any shard boundaries.

// trainDelta is one worker's private accumulation state: a full set of
// per-class delta counters plus the distance buffer the worker predicts
// with. Instances are pooled on the model so steady-state training
// epochs allocate nothing in the map phase.
type trainDelta struct {
	counters []*bitvec.Counter
	dists    []int
}

func (m *Model) getDelta() *trainDelta {
	if d, ok := m.delta.Get().(*trainDelta); ok {
		return d
	}
	d := &trainDelta{
		counters: make([]*bitvec.Counter, m.classes),
		dists:    make([]int, m.classes),
	}
	for c := range d.counters {
		d.counters[c] = bitvec.NewCounter(m.dims)
	}
	return d
}

// putDelta zeroes the delta counters and returns the scratch to the
// pool. Resetting on put keeps getDelta allocation- and work-free on
// the hot path.
func (m *Model) putDelta(d *trainDelta) {
	for _, c := range d.counters {
		c.Reset()
	}
	m.delta.Put(d)
}

// RetrainDelta is the result of the map phase of one retrain epoch:
// per-worker class deltas not yet folded into the canonical counters,
// plus the epoch's mistake count. Apply it with ApplyRetrain or drop it
// with DiscardRetrain; one of the two must be called to return the
// pooled scratch.
type RetrainDelta struct {
	// Mistakes is the number of samples the epoch-start deployed model
	// misclassified — identical to the count the sequential Retrain
	// epoch would have reported.
	Mistakes int

	single *trainDelta   // workers == 1 fast path (no slice, no allocs)
	deltas []*trainDelta // workers > 1, in shard order
}

// clampWorkers normalizes a requested worker count against the sample
// count: <= 0 selects GOMAXPROCS, and there is never more than one
// worker per sample.
func clampWorkers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// shardRange returns the half-open sample range of shard w out of
// `workers` contiguous, near-even shards over n samples.
func shardRange(n, workers, w int) (lo, hi int) {
	return w * n / workers, (w + 1) * n / workers
}

// AccumulateRetrain runs the map phase of one retrain epoch: samples
// are sharded across `workers` goroutines (<= 0 selects GOMAXPROCS),
// each predicting against the fixed deployed model `dep` (nil selects
// the live deployed model) and accumulating ±deltas into pooled
// per-worker counters. The model itself is not touched — callers that
// snapshot `dep` first can run this entirely outside any lock and fold
// the result in later with ApplyRetrain.
//
// Labels and dimensions are verified per shard; on error the lowest
// sample index's error is returned (matching what a sequential
// validation scan would report), all scratch is returned to the pool,
// and the model is left unchanged.
func (m *Model) AccumulateRetrain(dep []*bitvec.Vector, encoded []*bitvec.Vector, labels []int, workers int) (RetrainDelta, error) {
	if len(encoded) != len(labels) {
		return RetrainDelta{}, fmt.Errorf("model: %d samples but %d labels", len(encoded), len(labels))
	}
	if dep == nil {
		dep = m.deployed
	}
	if dep == nil {
		return RetrainDelta{}, fmt.Errorf("model: Retrain before Train")
	}
	n := len(encoded)
	if n == 0 {
		return RetrainDelta{}, nil
	}
	workers = clampWorkers(workers, n)
	if workers == 1 {
		d := m.getDelta()
		mistakes, err := m.retrainShard(d, dep, encoded, labels, 0, n)
		if err != nil {
			m.putDelta(d)
			return RetrainDelta{}, err
		}
		return RetrainDelta{Mistakes: mistakes, single: d}, nil
	}
	return m.mapShards(n, workers, func(d *trainDelta, lo, hi int) (int, error) {
		return m.retrainShard(d, dep, encoded, labels, lo, hi)
	})
}

// mapShards fans the shard body out across `workers` goroutines and
// collects per-worker deltas in shard order. On any shard error the
// lowest shard's error wins — shards are contiguous, so that is the
// lowest failing sample index — and all scratch returns to the pool.
func (m *Model) mapShards(n, workers int, shard func(d *trainDelta, lo, hi int) (int, error)) (RetrainDelta, error) {
	deltas := make([]*trainDelta, workers)
	counts := make([]int, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		deltas[w] = m.getDelta()
		lo, hi := shardRange(n, workers, w)
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			counts[w], errs[w] = shard(deltas[w], lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			for _, d := range deltas {
				m.putDelta(d)
			}
			return RetrainDelta{}, err
		}
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	return RetrainDelta{Mistakes: total, deltas: deltas}, nil
}

// retrainShard is the sequential map body for samples [lo, hi): predict
// against the frozen deployed model, accumulate the mistake deltas into
// the worker's private counters, count mistakes.
func (m *Model) retrainShard(d *trainDelta, dep []*bitvec.Vector, encoded []*bitvec.Vector, labels []int, lo, hi int) (int, error) {
	mistakes := 0
	for i := lo; i < hi; i++ {
		h, y := encoded[i], labels[i]
		if y < 0 || y >= m.classes {
			return 0, fmt.Errorf("model: label %d out of range [0,%d)", y, m.classes)
		}
		if h.Len() != m.dims {
			return 0, fmt.Errorf("model: sample %d has %d dims, want %d", i, h.Len(), m.dims)
		}
		pred := bitvec.Nearest(h, dep, d.dists)
		if pred == y {
			continue
		}
		mistakes++
		d.counters[y].Add(h)
		d.counters[pred].Sub(h)
	}
	return mistakes, nil
}

// ApplyRetrain is the reduce phase: fold every worker's deltas into the
// canonical counters (Counter.Merge, exact and order-independent),
// re-binarize once, and return the scratch to the pool.
func (m *Model) ApplyRetrain(rd RetrainDelta) {
	if rd.single != nil {
		m.mergeDelta(rd.single)
	}
	for _, d := range rd.deltas {
		m.mergeDelta(d)
	}
	m.Binarize()
}

// DiscardRetrain drops an accumulated epoch without touching the model,
// returning the scratch to the pool. Callers use it when the world
// changed between accumulate and apply (e.g. the served system was
// swapped out from under an online retrain).
func (m *Model) DiscardRetrain(rd RetrainDelta) {
	if rd.single != nil {
		m.putDelta(rd.single)
	}
	for _, d := range rd.deltas {
		m.putDelta(d)
	}
}

func (m *Model) mergeDelta(d *trainDelta) {
	for c := range m.counters {
		m.counters[c].Merge(d.counters[c])
	}
	m.putDelta(d)
}

// RetrainParallel is the sharded equivalent of Retrain: for each epoch
// it maps samples across `workers` goroutines against the epoch-start
// deployed model, reduces the deltas into the canonical counters, and
// binarizes once. Deployed vectors and per-epoch mistake counts are
// bit-identical to the sequential path for every worker count. It
// returns the number of mistakes in the final epoch.
func (m *Model) RetrainParallel(encoded []*bitvec.Vector, labels []int, epochs, workers int) (int, error) {
	if len(encoded) != len(labels) {
		return 0, fmt.Errorf("model: %d samples but %d labels", len(encoded), len(labels))
	}
	if m.deployed == nil {
		return 0, fmt.Errorf("model: Retrain before Train")
	}
	mistakes := 0
	for e := 0; e < epochs; e++ {
		rd, err := m.AccumulateRetrain(nil, encoded, labels, workers)
		if err != nil {
			return 0, err
		}
		mistakes = rd.Mistakes
		m.ApplyRetrain(rd)
		if mistakes == 0 {
			break
		}
	}
	return mistakes, nil
}

// TrainParallel is the sharded equivalent of Train: single-pass
// bundling mapped across `workers` goroutines into per-worker delta
// counters, reduced into the canonical counters, then binarized once.
// Bundling is commutative integer accumulation, so the result is
// bit-identical to sequential Train for every worker count.
func (m *Model) TrainParallel(encoded []*bitvec.Vector, labels []int, workers int) error {
	if len(encoded) != len(labels) {
		return fmt.Errorf("model: %d samples but %d labels", len(encoded), len(labels))
	}
	if len(encoded) == 0 {
		return fmt.Errorf("model: no training samples")
	}
	n := len(encoded)
	workers = clampWorkers(workers, n)
	var rd RetrainDelta
	var err error
	if workers == 1 {
		d := m.getDelta()
		if _, err = m.bundleShard(d, encoded, labels, 0, n); err != nil {
			m.putDelta(d)
			return err
		}
		rd = RetrainDelta{single: d}
	} else {
		rd, err = m.mapShards(n, workers, func(d *trainDelta, lo, hi int) (int, error) {
			return m.bundleShard(d, encoded, labels, lo, hi)
		})
		if err != nil {
			return err
		}
	}
	m.ApplyRetrain(rd)
	return nil
}

// bundleShard accumulates samples [lo, hi) into the worker's private
// counters: plain single-pass bundling, no predictions.
func (m *Model) bundleShard(d *trainDelta, encoded []*bitvec.Vector, labels []int, lo, hi int) (int, error) {
	for i := lo; i < hi; i++ {
		h, y := encoded[i], labels[i]
		if y < 0 || y >= m.classes {
			return 0, fmt.Errorf("model: label %d out of range [0,%d)", y, m.classes)
		}
		if h.Len() != m.dims {
			return 0, fmt.Errorf("model: sample %d has %d dims, want %d", i, h.Len(), m.dims)
		}
		d.counters[y].Add(h)
	}
	return 0, nil
}
