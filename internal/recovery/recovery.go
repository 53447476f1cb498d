// Package recovery implements RobustHD's adaptive self-recovery
// framework (Section 4 of the paper), the primary contribution of the
// reproduction.
//
// The deployed HDC model lives in attackable memory; no clean copy
// exists anywhere. Recovery therefore works unsupervised, from the
// inference stream itself:
//
//  1. Confidence gate (§4.1) — every query is classified and its
//     similarity vector is softmax-normalized; only predictions whose
//     confidence clears the threshold T_C are trusted as pseudo-labels.
//  2. Noisy chunk detection (§4.2) — the D dimensions are split into m
//     chunks; each chunk is scored as an independent sub-model. Chunks
//     where the trusted class does not win the chunk-local similarity
//     contest are flagged faulty.
//  3. Probabilistic substitution (§4.3) — each bit of a faulty chunk of
//     the trusted class hypervector is overwritten by the query's bit
//     with probability p (the substitution rate S). Small p is
//     conservative: healthy bits that already agree are unaffected, and
//     a single mispredicted query cannot destroy a chunk.
//
// Repeated over the stream, faulty dimensions are pulled back toward
// the (consistent) query statistics and the model self-heals without
// labels, ECC, or redundant storage.
package recovery

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync"

	"repro/internal/bitvec"
	"repro/internal/hdc/model"
	"repro/internal/stats"
)

// Config parameterizes the recovery framework.
type Config struct {
	// ConfidenceThreshold is T_C: queries predicted with softmax
	// confidence below it are ignored for recovery. Must be in (0, 1).
	// The confidence is the softmax of the class similarities at the
	// model package's default scale, the fixed logit scale T_C is
	// calibrated against.
	ConfidenceThreshold float64
	// Chunks is m, the number of chunks the hypervector is split into
	// for fault detection. Must be >= 1 and <= dimensions.
	Chunks int
	// SubstitutionRate is p (the paper's S): the per-bit probability of
	// copying the query bit into a faulty chunk. Must be in (0, 1].
	SubstitutionRate float64
	// EnsembleWindow enables the ensemble-substitution extension
	// (beyond the paper): faulty chunks are rewritten from the
	// majority of the class's last EnsembleWindow trusted queries
	// instead of the single current query, shrinking the sampling
	// residue of repeated substitution by ~√W. 0 or 1 reproduces the
	// paper's single-query substitution.
	EnsembleWindow int
	// GuardZ is the detection guard band in standard deviations of
	// chunk-similarity noise (σ = 1/(2·sqrt(chunkSize))): a chunk is
	// flagged faulty only when a rival class beats the trusted class
	// by more than GuardZ·σ. The guard keeps finite-chunk sampling
	// noise from flagging healthy chunks on models whose class margins
	// are comparable to σ — exactly corrupted chunks invert far beyond
	// it. Zero means "use DefaultGuardZ"; negative disables the guard
	// (the paper's raw mismatch criterion).
	GuardZ float64
}

// DefaultGuardZ is the default detection guard band width.
const DefaultGuardZ = 1.0

// DefaultConfig returns the operating point used for the paper's
// Table 4 results: a strict gate (T_C = 0.95 — at the fixed
// confidence scale this trusts only queries whose similarity
// margin exceeds ~3%, which keeps near-boundary samples from poisoning
// the substitution), 10 chunks (chunk noise must stay below typical
// class margins or fault detection false-positives corrupt healthy
// chunks), and a conservative substitution rate.
func DefaultConfig() Config {
	return Config{
		ConfidenceThreshold: 0.95,
		Chunks:              10,
		SubstitutionRate:    0.25,
	}
}

// Validate reports whether the configuration is usable for a model
// with the given hypervector dimensionality.
func (c Config) Validate(dims int) error {
	if err := stats.CheckInterval("recovery: confidence threshold", c.ConfidenceThreshold, "(0,1)"); err != nil {
		return err
	}
	if err := stats.CheckInterval("recovery: substitution rate", c.SubstitutionRate, "(0,1]"); err != nil {
		return err
	}
	if err := stats.CheckFinite("recovery: guard z", c.GuardZ); err != nil {
		return err
	}
	switch {
	case c.Chunks < 1:
		return fmt.Errorf("recovery: chunks %d must be >= 1", c.Chunks)
	case c.Chunks > dims:
		return fmt.Errorf("recovery: chunks %d exceed dimensions %d", c.Chunks, dims)
	case c.EnsembleWindow < 0 || c.EnsembleWindow > 1024:
		return fmt.Errorf("recovery: ensemble window %d out of [0,1024]", c.EnsembleWindow)
	}
	return nil
}

// Stats accumulates recovery activity over a stream.
type Stats struct {
	// Queries is the total number of observed queries.
	Queries int
	// Trusted is how many cleared the confidence gate.
	Trusted int
	// ChunksChecked counts chunk-level fault tests performed.
	ChunksChecked int
	// FaultyChunks counts chunks flagged faulty.
	FaultyChunks int
	// BitsSubstituted counts bit positions rewritten (including
	// rewrites that matched the existing bit).
	BitsSubstituted int
}

// Recoverer wires the framework onto a deployed model. It mutates the
// model's deployed class hypervectors in place — exactly the memory an
// attacker corrupts.
//
// Concurrency: the Recoverer's own state (RNG, counters, ensemble
// rings) is guarded by an internal mutex, so Observe, Run, and Stats
// are safe to call from multiple goroutines. The deployed model is
// NOT covered by that mutex: Observe both reads and rewrites the class
// hypervectors, so callers that read the model concurrently (serving
// predictions) or write it (attack drills, restores) must serialize
// model access externally — the serve package's single-writer lock is
// the reference pattern.
type Recoverer struct {
	model *model.Model
	cfg   Config

	// mu guards everything below it; see the concurrency note above.
	mu    sync.Mutex
	rng   *rand.Rand
	stats Stats
	// chunk boundaries, precomputed
	bounds []int
	// Observe's scratch: the class vectors and the k×m (class, chunk)
	// Hamming table of the current trusted query
	classes []*bitvec.Vector
	table   []int
	// per-class rings of recent trusted queries (ensemble mode only)
	rings map[int]*queryRing
}

// New creates a Recoverer for the given trained model.
func New(m *model.Model, cfg Config, seed uint64) (*Recoverer, error) {
	if err := cfg.Validate(m.Dimensions()); err != nil {
		return nil, err
	}
	if cfg.GuardZ == 0 {
		cfg.GuardZ = DefaultGuardZ
	}
	r := &Recoverer{model: m, cfg: cfg, rng: stats.NewRNG(seed ^ 0x2545F4914F6CDD1D)}
	d := m.Dimensions()
	r.bounds = make([]int, cfg.Chunks+1)
	for i := 0; i <= cfg.Chunks; i++ {
		r.bounds[i] = i * d / cfg.Chunks
	}
	return r, nil
}

// SubstitutionRate returns the active per-bit substitution probability.
func (r *Recoverer) SubstitutionRate() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cfg.SubstitutionRate
}

// SetSubstitutionRate retunes the substitution rate on a live
// recoverer — the serve watchdog's tier-1 response raises it when the
// fault flux outpaces the default healing rate, then restores it once
// the model holds steady. Counters, chunk bounds, and ensemble rings
// are untouched. The rate must be a finite number in (0, 1] — NaN and
// ±Inf are rejected like any out-of-range value (NaN would slip
// through naive `p <= 0 || p > 1` bounds because it compares false
// against everything, and a NaN rate makes every substitution draw
// fail silently).
func (r *Recoverer) SetSubstitutionRate(p float64) error {
	if err := stats.CheckInterval("recovery: substitution rate", p, "(0,1]"); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cfg.SubstitutionRate = p
	return nil
}

// Stats returns the accumulated counters. It is safe to call while
// another goroutine is inside Observe (the serve package's metrics
// endpoint does exactly that).
func (r *Recoverer) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// Observe processes a single unlabeled query: it returns the model's
// prediction and, when the confidence gate passes, runs chunk fault
// detection and probabilistic substitution on the predicted class.
// The second result reports whether any chunk was repaired.
//
// Observe serializes against other Observe and Stats calls; see the
// Recoverer concurrency note for the model-access contract.
func (r *Recoverer) Observe(q *bitvec.Vector) (pred int, updated bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stats.Queries++
	pred, conf := r.model.PredictWithConfidence(q, 0)
	if conf < r.cfg.ConfidenceThreshold {
		return pred, false
	}
	r.stats.Trusted++

	// The (class, chunk) Hamming table is built only past the gate,
	// so an untrusted query pays for the one re-score above and no
	// more. Substitution into chunk c rewrites bits of that chunk only,
	// so the entries of later chunks stay those of the live model.
	r.classes = r.classes[:0]
	for c := 0; c < r.model.Classes(); c++ {
		r.classes = append(r.classes, r.model.ClassVector(c))
	}
	r.table = bitvec.HammingChunks(q, r.classes, r.bounds, r.table)
	classVec := r.classes[pred]
	source := r.substitutionSource(pred, q)
	m := r.cfg.Chunks
	for c := 0; c < m; c++ {
		lo, hi := r.bounds[c], r.bounds[c+1]
		r.stats.ChunksChecked++
		// Chunk-local similarity contest: the chunk is healthy when
		// the trusted class wins (ties resolve in its favor). The
		// guard band absorbs finite-chunk sampling noise. Similarities
		// are SimilarityRange's 1 - h/(hi-lo) over the table's h.
		guard := 0.0
		if r.cfg.GuardZ > 0 {
			guard = r.cfg.GuardZ / (2 * math.Sqrt(float64(hi-lo)))
		}
		width := float64(hi - lo)
		own := 1 - float64(r.table[pred*m+c])/width
		faulty := false
		for other := range r.classes {
			if other == pred {
				continue
			}
			if 1-float64(r.table[other*m+c])/width > own+guard {
				faulty = true
				break
			}
		}
		if !faulty {
			continue
		}
		r.stats.FaultyChunks++
		r.stats.BitsSubstituted += classVec.SubstituteRange(source, lo, hi, r.cfg.SubstitutionRate, r.rng)
		updated = true
	}
	return pred, updated
}

// Run observes every query in order and returns the predictions.
func (r *Recoverer) Run(queries []*bitvec.Vector) []int {
	preds := make([]int, len(queries))
	for i, q := range queries {
		preds[i], _ = r.Observe(q)
	}
	return preds
}

// TracePoint is one sample of an instrumented recovery run.
type TracePoint struct {
	// Queries observed so far.
	Queries int
	// Accuracy on the held-out evaluation set at this point.
	Accuracy float64
	// Trusted queries so far.
	Trusted int
	// BitsSubstituted so far.
	BitsSubstituted int
}

// RunTraced observes the query stream, evaluating held-out accuracy
// every interval queries (and once before the stream and once at the
// end). It is the instrumentation behind Figure 3's recovery dynamics.
func (r *Recoverer) RunTraced(queries []*bitvec.Vector, evalQ []*bitvec.Vector, evalY []int, interval int) []TracePoint {
	if interval < 1 {
		interval = 1
	}
	st := r.Stats()
	trace := []TracePoint{{
		Queries:  st.Queries,
		Accuracy: r.model.Accuracy(evalQ, evalY),
		Trusted:  st.Trusted,
	}}
	for i, q := range queries {
		r.Observe(q)
		if (i+1)%interval == 0 || i == len(queries)-1 {
			st = r.Stats()
			trace = append(trace, TracePoint{
				Queries:         st.Queries,
				Accuracy:        r.model.Accuracy(evalQ, evalY),
				Trusted:         st.Trusted,
				BitsSubstituted: st.BitsSubstituted,
			})
		}
	}
	return trace
}

// SamplesToRecover scans a trace for the first point whose accuracy
// reaches target and returns its query count, or -1 when the trace
// never recovers.
func SamplesToRecover(trace []TracePoint, target float64) int {
	for _, p := range trace {
		if p.Accuracy >= target {
			return p.Queries
		}
	}
	return -1
}
