package model

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/bitvec"
	"repro/internal/stats"
)

// scorer is the one scoring implementation behind every backend: the
// per-class similarity, the softmax confidence the recovery gate reads
// (Section 4.1) and the nearest-class prediction. It reads rows — the
// dense class vectors, or the LogHD base planes folded through decode
// — and takes its scratch from pool.
//
// A Frozen embeds a scorer over immutable cloned rows. Model and LogHD
// score through view, a transient scorer over their live rows that is
// built per call and never cached: it copies no bits, allocates
// nothing, and always sees the current row pointers and in-place bit
// writes. Freezing per call instead would clone k·D bits each time —
// at ISOLET shape (k=26, D=10,000) that costs more than the scoring it
// precedes.
type scorer struct {
	dims int
	rows []*bitvec.Vector
	// decode is nil for dense rows, one vector per class. For LogHD
	// rows (the n base planes) it carries the codeword table that folds
	// plane distances back into per-class scores. The table is
	// immutable and shared by the live deployment and every image
	// frozen from it — attacks flip plane bits, never codewords.
	decode *logDecode
	pool   *FrozenPool
}

// logDecode is the immutable codeword table a compressed deployment
// scores through.
type logDecode struct {
	classes int
	code    []uint32
	// offsets[j] = Σ_c hamming(C_c, plane_j) at compression time — the
	// per-plane centering constants score subtracts (scaled by k).
	offsets []int64
}

// score folds centered plane distances through class c's codeword:
// +(k·d_j − O_j) where the codeword bit is set, the negation where
// clear. Centering cancels the class-independent bias that the
// prototypes' shared component injects into every plane distance; the
// true class minimizes the score, exactly as Hamming distance does for
// the dense model. All-integer so both ends of a serialization score
// bit-identically.
func (d *logDecode) score(pd []int, c int) int64 {
	cw := d.code[c]
	var score int64
	for j, dist := range pd {
		t := int64(d.classes)*int64(dist) - d.offsets[j]
		if cw>>uint(j)&1 == 1 {
			score += t
		} else {
			score -= t
		}
	}
	return score
}

// Classes returns the number of classes k.
func (s scorer) Classes() int {
	if s.decode != nil {
		return s.decode.classes
	}
	return len(s.rows)
}

// Dimensions returns the hypervector dimensionality D.
func (s scorer) Dimensions() int { return s.dims }

// SimilaritiesInto writes the per-class similarity of q into dst (len
// Classes), allocation-free in steady state. Dense rows give the
// normalized Hamming similarity 1 − d/D. Compressed rows give
// 1/2 − score/(2·n·k·D) ∈ [0, 1], monotone decreasing in the decoded
// score, so argmax similarity is argmin score in both cases.
func (s scorer) SimilaritiesInto(dst []float64, q *bitvec.Vector) {
	s.checkDst(dst)
	sc := s.pool.getScore()
	s.similarities(dst, q, sc)
	s.pool.putScore(sc)
}

func (s scorer) similarities(dst []float64, q *bitvec.Vector, sc *scoreScratch) {
	pd := sc.dists[:len(s.rows)]
	bitvec.HammingMany(q, s.rows, pd)
	if s.decode != nil {
		denom := 2 * float64(len(s.rows)*s.decode.classes*s.dims)
		for c := range dst {
			dst[c] = 0.5 - float64(s.decode.score(pd, c))/denom
		}
		return
	}
	n := float64(s.dims)
	for c, d := range pd {
		dst[c] = 1 - float64(d)/n
	}
}

// ConfidencesInto writes the softmax-normalized confidence δ′ =
// softmax(δ · temperature) of q against each class into dst (len
// Classes); temperature ≤ 0 selects DefaultConfidenceTemperature.
func (s scorer) ConfidencesInto(dst []float64, q *bitvec.Vector, temperature float64) {
	s.checkDst(dst)
	sc := s.pool.getScore()
	s.confidences(dst, q, temperature, sc)
	s.pool.putScore(sc)
}

func (s scorer) confidences(dst []float64, q *bitvec.Vector, temperature float64, sc *scoreScratch) {
	if temperature <= 0 {
		temperature = DefaultConfidenceTemperature
	}
	s.similarities(sc.sims, q, sc)
	for i := range sc.sims {
		sc.sims[i] *= temperature
	}
	stats.SoftmaxInto(dst, sc.sims)
}

func (s scorer) checkDst(dst []float64) {
	if len(dst) != s.Classes() {
		panic(fmt.Sprintf("model: dst has %d slots, want %d", len(dst), s.Classes()))
	}
}

// Predict returns the nearest class: the early-abandoning
// bitvec.Nearest kernel over dense rows, the codeword-decoded argmin
// over compressed ones. Ties go to the lowest class index in both.
func (s scorer) Predict(q *bitvec.Vector) int {
	sc := s.pool.getScore()
	var best int
	if s.decode == nil {
		best = bitvec.Nearest(q, s.rows, sc.dists)
	} else {
		pd := sc.dists[:len(s.rows)]
		bitvec.HammingMany(q, s.rows, pd)
		bestD := s.decode.score(pd, 0)
		for c := 1; c < s.decode.classes; c++ {
			if d := s.decode.score(pd, c); d < bestD {
				best, bestD = c, d
			}
		}
	}
	s.pool.putScore(sc)
	return best
}

// PredictWithConfidence returns the predicted class and its softmax
// confidence, allocation-free in steady state.
func (s scorer) PredictWithConfidence(q *bitvec.Vector, temperature float64) (int, float64) {
	sc := s.pool.getScore()
	s.confidences(sc.conf, q, temperature, sc)
	best := stats.ArgMax(sc.conf)
	conf := sc.conf[best]
	s.pool.putScore(sc)
	return best, conf
}

// predictParallelMin is the batch size below which AccuracyParallel
// stays serial: spawning workers costs more than scoring a handful of
// queries.
const predictParallelMin = 64

// AccuracyParallel evaluates accuracy over encoded queries across the
// given worker count (<= 0 selects GOMAXPROCS). Scoring only reads the
// rows, so workers share them; callers that mutate a live backend
// concurrently must serialize those writes against this read, exactly
// as for Predict.
func (s scorer) AccuracyParallel(qs []*bitvec.Vector, labels []int, workers int) float64 {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(qs) {
		workers = len(qs)
	}
	preds := make([]int, len(qs))
	if workers <= 1 || len(qs) < predictParallelMin {
		for i, q := range qs {
			preds[i] = s.Predict(q)
		}
		return stats.Accuracy(preds, labels)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(qs) {
					return
				}
				preds[i] = s.Predict(qs[i])
			}
		}()
	}
	wg.Wait()
	return stats.Accuracy(preds, labels)
}

// refreeze publishes an immutable image of the scorer's rows through
// p, cloning only the dirty rows (class vectors or planes) and sharing
// every clean row with prev — row-granular copy-on-write. A nil dirty
// slice, or a nil prev, clones every row. The decode table is shared
// by reference. The caller must hold whatever lock serializes writes
// to the live rows.
func (s scorer) refreeze(prev *Frozen, p *FrozenPool, dirty []int) *Frozen {
	if p.rows != len(s.rows) || p.classes != s.Classes() || p.dims != s.dims {
		panic(fmt.Sprintf("model: pool shaped (%d,%d,%d), backend (%d,%d,%d)",
			p.rows, p.classes, p.dims, len(s.rows), s.Classes(), s.dims))
	}
	next := &Frozen{scorer{dims: s.dims, rows: make([]*bitvec.Vector, len(s.rows)), decode: s.decode, pool: p}}
	if prev == nil || dirty == nil {
		for j, v := range s.rows {
			next.rows[j] = p.clone(v)
		}
		return next
	}
	copy(next.rows, prev.rows)
	for _, j := range dirty {
		next.rows[j] = p.clone(s.rows[j])
	}
	return next
}

// Frozen is an immutable scoring image of a model: the deployed binary
// class hypervectors (or LogHD planes) captured at one publication
// point. Readers score against a Frozen with no synchronization at all
// — nothing ever mutates it — which is what lets the serving read path
// drop its lock (see EpochChain). Scoring is the same scorer the live
// Model and LogHD use, so a Frozen answers bit-identically to the
// backend it was frozen from.
type Frozen struct{ scorer }

// ClassVector returns the frozen hypervector for class c. Callers must
// not mutate it: the vector may be shared with other epochs and with
// the live model's history.
func (f *Frozen) ClassVector(c int) *bitvec.Vector { return f.rows[c] }

// FrozenPool recycles the fixed-size buffers of one backend shape: the
// rows cloned at each publication and the scoring scratch. Every Model
// and LogHD owns one, and an EpochChain publishes through its
// backend's pool. Only raw vectors are pooled — Frozen structs
// themselves are never reused, because a reader may still be
// validating a stale pointer to one (the ABA hazard an RCU grace
// period cannot excuse; see EpochChain).
type FrozenPool struct {
	// rows is how many vectors an image stores: classes for dense
	// images, the plane count for compressed ones.
	rows, classes, dims int
	vecs                sync.Pool // *bitvec.Vector of dims bits
	score               sync.Pool // *scoreScratch sized for the shape
}

// scoreScratch is the per-call working state of the scorer: integer
// distances to every row plus the float views the similarity and
// softmax conversions write into.
type scoreScratch struct {
	dists []int
	sims  []float64
	conf  []float64
}

// NewFrozenPool returns a pool for dense models with the given shape.
func NewFrozenPool(classes, dims int) *FrozenPool {
	return &FrozenPool{rows: classes, classes: classes, dims: dims}
}

func (p *FrozenPool) getScore() *scoreScratch {
	if s, ok := p.score.Get().(*scoreScratch); ok {
		return s
	}
	return &scoreScratch{
		dists: make([]int, max(p.rows, p.classes)),
		sims:  make([]float64, p.classes),
		conf:  make([]float64, p.classes),
	}
}

func (p *FrozenPool) putScore(s *scoreScratch) { p.score.Put(s) }

// clone returns a pooled copy of v.
func (p *FrozenPool) clone(v *bitvec.Vector) *bitvec.Vector {
	cv, ok := p.vecs.Get().(*bitvec.Vector)
	if !ok {
		cv = bitvec.New(p.dims)
	}
	cv.CopyFrom(v)
	return cv
}

// recycleInto returns retired's rows to the pool, except those still
// shared (positionally) with successor. Rows only ever flow forward
// through refreezes — a clean row carries its pointer into the next
// image — so a row present in a fully drained retired image but absent
// from its immediate successor is referenced by no later epoch and no
// reader, and is safe to reuse.
func (p *FrozenPool) recycleInto(retired, successor *Frozen) {
	for c, v := range retired.rows {
		if successor != nil && successor.rows[c] == v {
			continue
		}
		p.vecs.Put(v)
		retired.rows[c] = nil
	}
}

// Freezer is a model backend that can publish immutable scoring
// images: the dense Model and the compressed LogHD both implement it,
// so an EpochChain serves either behind the same lock-free read path.
type Freezer interface {
	// Classes returns the number of classes the published images score.
	Classes() int
	// Dimensions returns the hypervector dimensionality D.
	Dimensions() int
	// Refreeze publishes a new immutable image, cloning only the dirty
	// stored rows (class vectors or planes) and sharing clean ones with
	// prev; nil prev or nil dirty clones everything. The caller holds
	// the writer lock that serializes backend mutation.
	Refreeze(prev *Frozen, p *FrozenPool, dirty []int) *Frozen
	// view returns the backend's live scorer; its pool is the one an
	// EpochChain publishes through.
	view() scorer
}

// view is the model's live scorer over its deployed class vectors.
func (m *Model) view() scorer {
	if m.deployed == nil {
		panic("model: not trained")
	}
	return scorer{dims: m.dims, rows: m.deployed, pool: m.pool}
}

// Freeze captures the model's current deployed vectors as a new Frozen,
// cloning every class through the pool. The model must be trained.
func (m *Model) Freeze(p *FrozenPool) *Frozen { return m.Refreeze(nil, p, nil) }

// Refreeze publishes a new Frozen from the model's current deployed
// vectors, cloning only the dirty classes and sharing every clean
// class vector with prev; see scorer.refreeze.
func (m *Model) Refreeze(prev *Frozen, p *FrozenPool, dirty []int) *Frozen {
	return m.view().refreeze(prev, p, dirty)
}

// view is the deployment's live scorer over its base planes.
func (l *LogHD) view() scorer {
	return scorer{dims: l.dims, rows: l.planes, decode: l.decode, pool: l.pool}
}

// Freeze captures the deployment's current planes as a new Frozen.
func (l *LogHD) Freeze(p *FrozenPool) *Frozen { return l.Refreeze(nil, p, nil) }

// Refreeze publishes a new compressed Frozen, cloning only the dirty
// planes and sharing clean ones with prev; see scorer.refreeze.
func (l *LogHD) Refreeze(prev *Frozen, p *FrozenPool, dirty []int) *Frozen {
	return l.view().refreeze(prev, p, dirty)
}
