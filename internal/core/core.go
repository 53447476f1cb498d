// Package core assembles the RobustHD system: hyperdimensional record
// encoding of raw features (the encoder owns the fitted normalizer
// ranges), the HDC classifier, and the adaptive self-recovery loop,
// behind one facade. Examples, the CLI, and the experiment drivers all
// build on this package.
//
// The division of state mirrors the paper's threat model:
//
//   - The encoder, with its normalizer ranges, is derived
//     deterministically from (seed, config, training data) and never
//     needs to live in attackable memory.
//   - The deployed binary class hypervectors ARE the attackable
//     memory; attacks flip their bits and recovery rewrites them.
package core

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/attack"
	"repro/internal/bitvec"
	"repro/internal/hdc/encoding"
	"repro/internal/hdc/model"
	"repro/internal/recovery"
	"repro/internal/stats"
)

// Config parameterizes system construction.
type Config struct {
	// Dimensions is the hypervector dimensionality D (default 10000).
	Dimensions int
	// Levels is the number of feature quantization levels (default 8;
	// coarser levels make within-class encodings more coherent, which
	// widens class margins).
	Levels int
	// RetrainEpochs is how many mistake-driven refinement passes run
	// after single-pass training (default 5; 0 disables).
	RetrainEpochs int
	// Seed drives the encoder's item/level memories.
	Seed uint64
	// Workers is the goroutine count for encode and the map phase of
	// training (<= 0 selects GOMAXPROCS). The parallel training path is
	// bit-identical to sequential for every worker count.
	Workers int
}

// DefaultConfig returns the paper's main operating point.
func DefaultConfig() Config {
	return Config{Dimensions: 10000, Levels: 8, RetrainEpochs: 5, Seed: 1}
}

func (c *Config) fillDefaults() {
	if c.Dimensions == 0 {
		c.Dimensions = 10000
	}
	if c.Levels == 0 {
		c.Levels = 8
	}
}

// Validate checks the encoder shape a configuration asks for, with
// zero fields at their defaults: positive dimensions, and a level count
// of at least 2 whose level memory fits encoding.MaxLevelMemory. Train
// and snapshot loading apply the same rule; request handlers call it
// before training.
func (c Config) Validate() error {
	c.fillDefaults()
	if c.Dimensions <= 0 {
		return fmt.Errorf("core: dimensions must be positive, got %d", c.Dimensions)
	}
	if err := encoding.ValidateLevels(c.Dimensions, c.Levels); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

// System is a trained RobustHD classifier. Exactly one backend is
// non-nil: the dense per-class model (the paper's deployment, which
// the recovery loop can heal) or the LogHD-compressed deployment
// (log-compressed class memory, no per-class recovery surface).
type System struct {
	cfg     Config
	encoder *encoding.RecordEncoder
	model   *model.Model
	log     *model.LogHD
}

// Train builds and trains a system on raw feature vectors with labels
// in [0, classes).
func Train(trainX [][]float64, trainY []int, classes int, cfg Config) (*System, error) {
	cfg.fillDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(trainX) == 0 {
		return nil, fmt.Errorf("core: no training data")
	}
	if len(trainX) != len(trainY) {
		return nil, fmt.Errorf("core: %d samples but %d labels", len(trainX), len(trainY))
	}
	// The item memory and the training counters are sized by the
	// request, not by its bytes: bound both before allocating either.
	if err := encoding.ValidateFeatures(cfg.Dimensions, len(trainX[0])); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if err := encoding.ValidateClasses(cfg.Dimensions, classes); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	norm, err := encoding.FitNormalizer(trainX)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	enc, err := encoding.NewRecordEncoder(cfg.Dimensions, cfg.Levels, norm, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	m, err := model.New(classes, cfg.Dimensions)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	s := &System{cfg: cfg, encoder: enc, model: m}
	encoded := s.EncodeAllParallel(trainX, cfg.Workers)
	if err := m.TrainParallel(encoded, trainY, cfg.Workers); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if cfg.RetrainEpochs > 0 {
		if _, err := m.RetrainParallel(encoded, trainY, cfg.RetrainEpochs, cfg.Workers); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	return s, nil
}

// backend is the surface the dense Model and the compressed LogHD
// share: publication to an epoch chain, live scoring, and the deployed
// rows (class vectors or planes) as a snapshot.
type backend interface {
	model.Freezer
	Predict(q *bitvec.Vector) int
	PredictWithConfidence(q *bitvec.Vector, _ float64) (int, float64)
	AccuracyParallel(qs []*bitvec.Vector, labels []int, workers int) float64
	StorageBits() int
	SnapshotDeployed() []*bitvec.Vector
	RestoreDeployed(vs []*bitvec.Vector)
	WriteDeployed(w io.Writer) error
}

// backend returns the active deployment for the operations both
// backends implement.
func (s *System) backend() backend {
	if s.log != nil {
		return s.log
	}
	return s.model
}

// Fork returns an independent copy of the system for concurrent use:
// the deployed backend is deep-copied while the immutable encoder is
// shared. Forks let parallel experiment trials attack and recover
// private model copies instead of serializing attack/restore cycles on
// one shared system.
func (s *System) Fork() *System {
	f := &System{cfg: s.cfg, encoder: s.encoder}
	if s.log != nil {
		f.log = s.log.Clone()
	} else {
		f.model = s.model.Clone()
	}
	return f
}

// CompressLogHD returns a sibling system whose deployment is the LogHD
// compression of this system's trained dense model, sharing the
// encoder (queries encode identically; only scoring memory changes).
// extraPlanes adds redundancy planes beyond ceil(log2 k); see
// model.CompressLogHD.
func (s *System) CompressLogHD(extraPlanes int) (*System, error) {
	if s.model == nil {
		return nil, fmt.Errorf("core: compression requires a dense backend")
	}
	l, err := model.CompressLogHD(s.model, extraPlanes)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &System{cfg: s.cfg, encoder: s.encoder, log: l}, nil
}

// Config returns the construction configuration.
func (s *System) Config() Config { return s.cfg }

// Model exposes the dense classifier (and through it the deployed,
// attackable class hypervectors); nil when the system runs the LogHD
// backend — callers needing per-class vectors (recovery, fleets,
// quantization) must check Backend first.
func (s *System) Model() *model.Model { return s.model }

// LogHD exposes the compressed deployment; nil on the dense backend.
func (s *System) LogHD() *model.LogHD { return s.log }

// Backend names the active deployment: "dense" or "loghd".
func (s *System) Backend() string {
	if s.log != nil {
		return "loghd"
	}
	return "dense"
}

// Freezer returns the active backend for epoch-chain publication
// (model.NewEpochChain / EpochChain.Publish accept either).
func (s *System) Freezer() model.Freezer { return s.backend() }

// StorageBits returns the deployed class-memory footprint in bits of
// the active backend: k·D for dense, n·D plus codewords and offsets
// for LogHD. The ratio between the two is the compression number
// EXPERIMENTS.md reports.
func (s *System) StorageBits() int { return s.backend().StorageBits() }

// Classes returns the number of classes.
func (s *System) Classes() int { return s.backend().Classes() }

// Dimensions returns the hypervector dimensionality.
func (s *System) Dimensions() int { return s.backend().Dimensions() }

// Features returns the original-space feature count the encoder
// expects; Encode panics on any other input arity, so request-facing
// callers (the serve package) validate against this first.
func (s *System) Features() int { return s.encoder.Features() }

// Encode encodes one raw feature vector. Only the returned
// hypervector is allocated; the encoder's pooled scratch holds the
// rest.
func (s *System) Encode(x []float64) *bitvec.Vector { return s.encoder.Encode(x) }

// encodeAllInto allocates out[i] and encodes xs[i] into it, on
// scratch borrowed from the encoder's pool.
func (s *System) encodeAllInto(out []*bitvec.Vector, xs [][]float64) {
	for i := range out {
		out[i] = bitvec.New(s.encoder.Dimensions())
	}
	s.encoder.EncodeBatchInto(out, xs, nil)
}

// EncodeAll encodes a batch of raw feature vectors.
func (s *System) EncodeAll(xs [][]float64) []*bitvec.Vector {
	out := make([]*bitvec.Vector, len(xs))
	s.encodeAllInto(out, xs)
	return out
}

// EncodeAllParallel encodes a batch across the given number of worker
// goroutines (<= 0 selects GOMAXPROCS). Encoding dominates HDC
// training time and parallelizes embarrassingly: the encoder is
// read-only and each sample is independent. Workers take contiguous
// chunks of ceil(n/workers) samples, at most encoding.MaxBatch, so
// each chunk is one batch-major pass. Results are in input order and
// bit-identical to EncodeAll.
func (s *System) EncodeAllParallel(xs [][]float64, workers int) []*bitvec.Vector {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	chunk := min(encoding.MaxBatch, (len(xs)+workers-1)/workers)
	if workers == 1 || chunk >= len(xs) {
		return s.EncodeAll(xs)
	}
	chunks := (len(xs) + chunk - 1) / chunk
	workers = min(workers, chunks)
	out := make([]*bitvec.Vector, len(xs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(1)-1) * chunk
				if lo >= len(xs) {
					return
				}
				hi := min(lo+chunk, len(xs))
				s.encodeAllInto(out[lo:hi], xs[lo:hi])
			}
		}()
	}
	wg.Wait()
	return out
}

// Predict classifies one raw feature vector.
func (s *System) Predict(x []float64) int {
	return s.backend().Predict(s.Encode(x))
}

// PredictWithConfidence classifies one raw feature vector and returns
// the winning class with a normalized confidence.
//
// Contract: the confidence is the softmax of the class similarities at
// the model package's default scale — a value in (1/k, 1] for k
// classes, where 1/k means "no margin over the rivals" and values near
// 1 mean the winner dominates. This is exactly the normalization the
// recovery gate applies, at the one fixed scale T_C is calibrated
// against, so the returned confidence is directly comparable to
// recovery.Config.ConfidenceThreshold (T_C): a query reported here
// with confidence >= T_C is one the recovery loop would trust as a
// pseudo-label.
func (s *System) PredictWithConfidence(x []float64) (int, float64) {
	return s.backend().PredictWithConfidence(s.Encode(x), 0)
}

// Accuracy evaluates on raw feature vectors, encoding and scoring in
// parallel across all cores (the serve package's periodic accuracy
// probe and the experiment drivers sit on this path).
func (s *System) Accuracy(xs [][]float64, ys []int) float64 {
	return s.backend().AccuracyParallel(s.EncodeAllParallel(xs, 0), ys, 0)
}

// AttackImage returns the attack surface of the deployed memory: the
// class hypervectors for the dense backend, the base planes for the
// compressed one, one bit per element either way. It is the image the
// one-shot drills flip and the substrate fault processes read and
// fault.
func (s *System) AttackImage() *attack.BinaryModel {
	if s.log != nil {
		return attack.NewLogHDPlanes(s.log)
	}
	return attack.NewBinaryModel(s.model)
}

// AttackRandom flips one bit in rate·(classes·D) randomly selected
// model elements. For a binary model this equals Targeted.
func (s *System) AttackRandom(rate float64, seed uint64) (attack.Result, error) {
	return attack.Random(s.AttackImage(), rate, stats.NewRNG(seed))
}

// AttackTargeted performs the worst-case attack at the given rate.
func (s *System) AttackTargeted(rate float64, seed uint64) (attack.Result, error) {
	return attack.Targeted(s.AttackImage(), rate, stats.NewRNG(seed))
}

// AttackBurst injects a row-hammer-style clustered fault: every bit in
// a contiguous span covering spanFrac of the deployed elements flips
// independently with flipProb. Physical attacks corrupt adjacent
// memory rows rather than uniformly scattered bits, and this localized
// shape is the damage the recovery loop's chunk detection is most
// sensitive to — the serve package's live attack drills use it to
// demonstrate online self-healing.
func (s *System) AttackBurst(spanFrac, flipProb float64, seed uint64) (attack.Result, error) {
	return attack.Burst(s.AttackImage(), spanFrac, flipProb, stats.NewRNG(seed))
}

// Snapshot captures the deployed vectors — class hypervectors or base
// planes, per backend (e.g. to measure recovery progress in
// experiments; the production threat model has no such safe copy).
func (s *System) Snapshot() []*bitvec.Vector { return s.backend().SnapshotDeployed() }

// Restore reinstalls a snapshot.
func (s *System) Restore(snap []*bitvec.Vector) { s.backend().RestoreDeployed(snap) }

// NewRecoverer attaches a recovery loop to the deployed model. The
// LogHD backend has no per-class hypervectors for substitution to
// rewrite — adaptive recovery is a dense-backend capability, and the
// robustness cost of compression is exactly its absence.
func (s *System) NewRecoverer(cfg recovery.Config, seed uint64) (*recovery.Recoverer, error) {
	if s.model == nil {
		return nil, fmt.Errorf("core: adaptive recovery requires the dense backend")
	}
	return recovery.New(s.model, cfg, seed)
}

// Quantize produces a b-bit deployment of the trained model (used by
// the Table 1 precision sweep).
func (s *System) Quantize(bits int) (*model.Quantized, error) {
	if s.model == nil {
		return nil, fmt.Errorf("core: quantization requires the dense backend")
	}
	return model.QuantizeModel(s.model, bits)
}
