// Package serve turns a trained core.System into a long-lived online
// inference service — the setting the paper's threat model actually
// describes. In-memory HDC deployments are always-on inference
// engines, bit-flip attacks on deployed class memory are an online
// phenomenon, and the adaptive recovery loop is a *runtime* mechanism:
// it belongs in the request path, not in a batch script.
//
// The server wires four pieces around one System:
//
//   - A sharded worker pool batches incoming predictions and encodes
//     them via EncodeAllParallel (pool.go). Encoding is lock-free —
//     the encoder is derived from (seed, config) and immutable — and
//     scoring reads an immutable model epoch, so a batch takes no lock.
//   - A background recovery goroutine feeds high-confidence queries
//     into recovery.Recoverer.Observe under the replica's writer lock,
//     so the deployed class hypervectors self-heal while the server
//     keeps answering queries.
//   - Operational endpoints (handlers.go): /predict, /train,
//     /snapshot + /restore checkpointing, /attack fault-injection
//     drills, /metrics and /healthz.
//   - Graceful shutdown: Close drains the pool (every accepted
//     request gets an answer), then drains the recovery queue, then
//     stops the probe loop.
//
// Concurrency model — RCU epoch snapshots (DESIGN.md §"RCU read
// path"): the serving read path takes NO lock. The installed system
// and its scoring image live behind an atomic pointer (Server.live);
// each batch acquires the current model epoch (model.EpochChain, one
// atomic increment), scores every query against that immutable frozen
// image, and releases it. Writers — recovery observations, substrate
// scrub ticks, attack drills, retrain applies, rollbacks, node
// repairs/reseeds — all go through the installed fleet.Replica, the
// one writer type the server shares with cluster nodes and fleet
// members: each mutates the live model under the replica's writer lock
// and publishes the change as a new epoch in the same critical
// section, cloning only the class vectors it dirtied. Superseded
// epochs return their private vectors to a pool once the last
// in-flight reader drains, keeping the steady-state hot path
// allocation-free. Online retraining (RetrainOnline) accumulates its
// per-epoch mistake deltas against an epoch copy with no lock held,
// taking the writer lock only for the final merge + binarize swap.
package serve

import (
	"errors"
	"fmt"
	"time"

	"sync"
	"sync/atomic"

	"repro/internal/attack"
	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/recovery"
	"repro/internal/substrate"
)

// Errors surfaced by the serving path.
var (
	// ErrClosed reports a request arriving after Close began.
	ErrClosed = errors.New("serve: server closed")
	// ErrNoModel reports a request before any model was installed.
	ErrNoModel = errors.New("serve: no model loaded")
	// ErrBadInput reports a malformed prediction request.
	ErrBadInput = errors.New("serve: bad input")
)

// Fixed serving parameters.
const (
	// queueDepthPerBatch sizes each shard's request queue in batches:
	// a shard queues 4×BatchSize requests, then submissions block —
	// backpressure, not load shedding.
	queueDepthPerBatch = 4
	// recoveryQueue is the capacity of the trusted-query buffer between
	// the serving path and the recovery goroutine. When it is full,
	// queries are dropped and counted — recovery is best-effort and
	// must never add backpressure to serving.
	recoveryQueue = 1024
	// allCores asks the encode, accuracy and retrain fan-outs for
	// GOMAXPROCS workers.
	allCores = 0
)

// Config parameterizes the server.
type Config struct {
	// Shards is the number of independent batching workers (default
	// 4). The pool starts exactly that many batchers, whatever
	// GOMAXPROCS is. Each shard accumulates its own batch, so shards
	// bound both parallelism and tail latency spread.
	Shards int
	// BatchSize is the largest batch a shard encodes at once
	// (default 64).
	BatchSize int
	// BatchWindow bounds how long a shard waits for a batch to fill
	// before flushing a partial one (default 2ms). The wait is
	// adaptive: a shard lingers only while more submissions are in
	// flight, so an idle or lone client is served immediately and
	// never pays the window as latency.
	BatchWindow time.Duration

	// DisableRecovery turns the background self-healing loop off
	// (used by benchmarks and as an experimental control).
	DisableRecovery bool
	// Recovery parameterizes the recovery loop; the zero value
	// selects recovery.DefaultConfig().
	Recovery recovery.Config
	// RecoverySeed drives the recovery loop's substitution RNG.
	RecoverySeed uint64

	// ProbeInterval is how often the held-out accuracy probe runs (0
	// disables the periodic probe; ProbeNow is always available).
	ProbeInterval time.Duration

	// Substrate mounts the deployed model on a continuously faulting
	// simulated memory substrate (nil disables it). The scrubber
	// advances the fault process every ScrubTick under the replica's
	// writer lock, and the recovery loop's substitution writes are
	// charged to it as wear traffic.
	Substrate *substrate.Config
	// ScrubTick is the substrate scrubber period (default 100ms).
	ScrubTick time.Duration
	// Watchdog parameterizes the degradation watchdog; its Interval
	// enables the periodic loop (WatchdogNow is always available).
	// Mutually exclusive with Fleet — the fleet's quarantine/reseed
	// lifecycle supersedes the single-model watchdog ladder.
	Watchdog WatchdogConfig

	// Fleet replicates the installed model across N independently
	// faulting replicas behind quorum inference and anti-entropy
	// repair (nil keeps the single-model path). The server's Recovery,
	// Substrate, ScrubTick, and Journal settings flow into the fleet
	// config wherever the fleet config leaves them zero; in fleet mode
	// the server itself mounts no substrate and runs no scrubber — each
	// replica carries its own.
	Fleet *fleet.Config

	// Journal receives lifecycle events — watchdog transitions in
	// single-model mode, plus the fleet's repair/quarantine/reseed
	// stream in fleet mode (nil drops them).
	Journal *fleet.Journal

	// ModelID tags this server's journal events with a tenant model id
	// for multi-model processes (internal/registry). Events are stamped
	// at the source, so every tenant in a registry can share one
	// journal. Empty leaves events untagged — the default tenant — so
	// single-model journals are byte-identical to what they were before
	// tenancy existed.
	ModelID string

	// NodeAPI mounts the /node/* cluster-node endpoints: raw local
	// scoring, chunk-hash summaries, chunk fetch/repair, and snapshot/
	// reseed streaming for a networked coordinator (internal/cluster).
	// Mutually exclusive with Fleet — a node IS one replica; stacking a
	// local fleet under a networked one would double-replicate.
	NodeAPI bool
}

func (c *Config) fillDefaults() {
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 64
	}
	if c.BatchWindow <= 0 {
		c.BatchWindow = 2 * time.Millisecond
	}
	if c.Recovery == (recovery.Config{}) {
		c.Recovery = recovery.DefaultConfig()
	}
	if c.RecoverySeed == 0 {
		c.RecoverySeed = 1
	}
	if c.ScrubTick <= 0 {
		c.ScrubTick = 100 * time.Millisecond
	}
	c.Watchdog.fillDefaults()
}

// Prediction is one served classification.
type Prediction struct {
	// Class is the predicted label.
	Class int `json:"class"`
	// Confidence is the normalized softmax confidence in (1/k, 1],
	// on the same scale as recovery.Config.ConfidenceThreshold (see
	// core.System.PredictWithConfidence).
	Confidence float64 `json:"confidence"`
	// Trusted reports whether the confidence cleared the recovery
	// gate — i.e. whether this query was handed to the self-healing
	// loop as a pseudo-label.
	Trusted bool `json:"trusted"`
}

// liveState is everything one /train or /restore installs as a unit:
// the system plus either its one replica (single-model and node mode)
// or a replica fleet. Readers load the pointer once and get a mutually
// consistent view; writers go through the replica. The struct itself
// is immutable after install — a new install builds a fresh liveState
// and swaps the pointer, abandoning the old one (and its epoch chain)
// to in-flight readers and the GC.
type liveState struct {
	sys *core.System
	// rep deploys sys in single-model mode: its recoverer, fault
	// process, epoch chain and writer lock (nil in fleet mode).
	rep *fleet.Replica
	// flt is the replica fleet (fleet mode only). In fleet mode sys is
	// the pristine seed — encoding still goes through it, but scoring,
	// recovery, and fault processes live on the fleet's forks, each
	// its own Replica.
	flt *fleet.Fleet
}

// Server is an online inference service over a core.System.
type Server struct {
	cfg     Config
	start   time.Time
	metrics metrics

	// live is the atomically published installed state; the read path
	// loads it without any lock. Nil until the first install.
	live atomic.Pointer[liveState]

	// mu is the install-swap lock: the install swap holds it, and so
	// does a retrain's apply, so no install lands between the apply's
	// superseded check and its write. Model writes themselves serialize
	// on the replica's writer lock, which nests inside mu.
	mu sync.Mutex

	// wd is the degradation watchdog's state; wd.mu nests OUTSIDE every
	// replica lock.
	wd watchdogState

	// trainMu serializes online retrains (RetrainOnline); it nests
	// OUTSIDE s.mu.
	trainMu sync.Mutex

	pool  *pool
	recCh chan *bitvec.Vector

	probeMu sync.Mutex
	probeX  [][]float64
	probeY  []int

	done   chan struct{}
	bg     sync.WaitGroup
	closed atomic.Bool
}

// New starts a server. sys may be nil: the server then answers
// ErrNoModel until /train or /restore installs one.
func New(sys *core.System, cfg Config) (*Server, error) {
	if err := cfg.Watchdog.validate(); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	if cfg.Fleet != nil {
		if cfg.Watchdog.Interval > 0 {
			return nil, errors.New("serve: fleet mode and the watchdog loop are mutually exclusive (quarantine/reseed supersedes the watchdog ladder)")
		}
		if cfg.NodeAPI {
			return nil, errors.New("serve: fleet mode and the node API are mutually exclusive (a cluster node is itself one replica)")
		}
		if err := cfg.Fleet.Validate(); err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
	}
	cfg.fillDefaults()
	s := &Server{
		cfg:   cfg,
		start: time.Now(),
		recCh: make(chan *bitvec.Vector, recoveryQueue),
		done:  make(chan struct{}),
	}
	if sys != nil {
		if err := s.install(sys); err != nil {
			return nil, err
		}
	}
	s.pool = newPool(s, cfg.Shards, queueDepthPerBatch*cfg.BatchSize)
	s.bg.Add(1)
	go s.recoveryLoop()
	if cfg.ProbeInterval > 0 {
		s.every(cfg.ProbeInterval, func(time.Time) { s.ProbeNow() })
	}
	if cfg.Substrate != nil && cfg.Fleet == nil {
		// The scrubber feeds the fault process real elapsed wall time,
		// so a stalled tick (GC pause, lock contention) still accrues
		// the right amount of simulated decay.
		last := time.Now()
		s.every(cfg.ScrubTick, func(now time.Time) {
			_, _ = s.ScrubNow(now.Sub(last))
			last = now
		})
	}
	if cfg.Watchdog.Interval > 0 {
		s.every(cfg.Watchdog.Interval, func(time.Time) { s.WatchdogNow() })
	}
	return s, nil
}

// every runs fn on each tick until Close.
func (s *Server) every(tick time.Duration, fn func(now time.Time)) {
	s.bg.Add(1)
	go func() {
		defer s.bg.Done()
		t := time.NewTicker(tick)
		defer t.Stop()
		for {
			select {
			case now := <-t.C:
				fn(now)
			case <-s.done:
				return
			}
		}
	}()
}

// install deploys a system as a fresh replica (a new recoverer over
// its model, fault process over its attack image, and epoch chain)
// and publishes it with one pointer swap. The old
// state — checkpoint, watchdog posture, epoch chain — is abandoned: it
// describes a model that no longer exists, and in-flight readers of
// the old chain drain out on their own.
func (s *Server) install(sys *core.System) error {
	if s.closed.Load() {
		return ErrClosed
	}
	if sys.Backend() != "dense" {
		// Compressed backends have no per-class vectors to replicate,
		// repair chunk-by-class, or substitute into — the robustness cost
		// of compression the experiments measure. They still serve, scrub,
		// snapshot, roll back, and take attack drills.
		if s.cfg.Fleet != nil {
			return fmt.Errorf("serve: fleet replication requires the dense backend, got %q", sys.Backend())
		}
		if s.cfg.NodeAPI {
			return fmt.Errorf("serve: the node API requires the dense backend, got %q", sys.Backend())
		}
	}
	if s.cfg.Fleet != nil {
		return s.installFleet(sys)
	}
	var rc *recovery.Config
	if !s.cfg.DisableRecovery {
		rc = &s.cfg.Recovery
	}
	rep, err := fleet.NewReplica(sys, rc, s.cfg.RecoverySeed, s.cfg.Substrate)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	st := &liveState{sys: sys, rep: rep}
	s.mu.Lock()
	s.live.Store(st)
	s.mu.Unlock()
	s.wd.reset()
	return nil
}

// installFleet builds a replica fleet over the new seed system and
// swaps it in. The server's recovery/substrate/journal settings fill
// any field the fleet config leaves zero, so `-substrate` and
// `-replicas` compose the way an operator expects. The fleet is built
// outside the lock (forking N models is expensive) and the displaced
// fleet is closed after the swap, never under s.mu.
func (s *Server) installFleet(sys *core.System) error {
	fcfg := *s.cfg.Fleet
	fcfg.DisableRecovery = fcfg.DisableRecovery || s.cfg.DisableRecovery
	if fcfg.Recovery == (recovery.Config{}) {
		fcfg.Recovery = s.cfg.Recovery
	}
	if fcfg.Substrate == nil {
		fcfg.Substrate = s.cfg.Substrate
	}
	if fcfg.ScrubTick <= 0 {
		fcfg.ScrubTick = s.cfg.ScrubTick
	}
	if fcfg.Seed == 0 {
		fcfg.Seed = s.cfg.RecoverySeed
	}
	if fcfg.Journal == nil {
		fcfg.Journal = s.cfg.Journal
	}
	if fcfg.ModelID == "" {
		fcfg.ModelID = s.cfg.ModelID
	}
	flt, err := fleet.New(sys, fcfg)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	st := &liveState{sys: sys, flt: flt}
	s.mu.Lock()
	old := s.live.Load()
	s.live.Store(st)
	s.mu.Unlock()
	s.wd.reset()
	if old != nil && old.flt != nil {
		old.flt.Close()
	}
	return nil
}

// fleet returns the live fleet (nil in single-model mode). Lock-free.
func (s *Server) fleet() *fleet.Fleet {
	if st := s.live.Load(); st != nil {
		return st.flt
	}
	return nil
}

// Fleet exposes the live fleet for drills and status (nil in
// single-model mode).
func (s *Server) Fleet() *fleet.Fleet { return s.fleet() }

// system returns the current system (nil before the first install).
// Lock-free.
func (s *Server) system() *core.System {
	if st := s.live.Load(); st != nil {
		return st.sys
	}
	return nil
}

// Ready reports whether a model is installed.
func (s *Server) Ready() bool { return s.system() != nil }

// Predict classifies one raw feature vector through the batching
// pool. It blocks until a shard flushes the batch containing this
// request (at most BatchWindow once a shard picks it up).
func (s *Server) Predict(x []float64) (Prediction, error) {
	req := &request{x: x, resp: make(chan result, 1)}
	if err := s.pool.submit(req); err != nil {
		return Prediction{}, err
	}
	res := <-req.resp
	return res.pred, res.err
}

// Shards reports the batching pool's shard count.
func (s *Server) Shards() int { return s.cfg.Shards }

// PredictMany classifies a batch, fanning the samples out across the
// pool's shards and collecting in order. The returned error is the
// first submission failure; predictions before it are still valid.
func (s *Server) PredictMany(xs [][]float64) ([]Prediction, error) {
	reqs := make([]*request, len(xs))
	var submitErr error
	for i, x := range xs {
		reqs[i] = &request{x: x, resp: make(chan result, 1)}
		if err := s.pool.submit(reqs[i]); err != nil {
			reqs[i] = nil
			if submitErr == nil {
				submitErr = err
			}
		}
	}
	out := make([]Prediction, len(xs))
	for i, req := range reqs {
		if req == nil {
			continue
		}
		res := <-req.resp
		if res.err != nil {
			if submitErr == nil {
				submitErr = res.err
			}
			continue
		}
		out[i] = res.pred
	}
	return out, submitErr
}

// batchScratch is a batcher goroutine's reusable flush state: the
// valid-input views, the surviving requests, and the prediction
// results. Encoded query vectors are NOT pooled here — trusted ones
// outlive the batch on the recovery queue.
type batchScratch struct {
	xs    [][]float64
	live  []*request
	preds []Prediction
}

func newBatchScratch(batchSize int) *batchScratch {
	return &batchScratch{
		xs:    make([][]float64, 0, batchSize),
		live:  make([]*request, 0, batchSize),
		preds: make([]Prediction, 0, batchSize),
	}
}

// serveBatch is the pool's flush hook: encode the batch lock-free,
// score it against the current model epoch with no lock at all,
// enqueue trusted queries for recovery, and answer every request. sc
// is the calling batcher's private scratch. The epoch is acquired once
// per batch — one atomic increment amortized over the whole flush —
// and every query in the batch scores against the same immutable
// image, so a concurrent writer can never tear a batch.
func (s *Server) serveBatch(batch []*request, sc *batchScratch) {
	st := s.live.Load()
	if st == nil {
		for _, r := range batch {
			s.metrics.errors.Add(1)
			r.resp <- result{err: ErrNoModel}
		}
		return
	}
	sys := st.sys
	want := sys.Features()
	xs := sc.xs[:0]
	live := sc.live[:0]
	for _, r := range batch {
		if len(r.x) != want {
			s.metrics.errors.Add(1)
			r.resp <- result{err: fmt.Errorf("%w: got %d features, want %d", ErrBadInput, len(r.x), want)}
			continue
		}
		xs = append(xs, r.x)
		live = append(live, r)
	}
	sc.xs, sc.live = xs, live
	if len(xs) == 0 {
		return
	}
	encoded := sys.EncodeAllParallel(xs, allCores)

	// Single-model batches score on the replica's current epoch. Fleet
	// batches fan to the read-quorum (or the fast single replica while
	// the fleet is provably in sync); the seed system is never scored.
	gate := s.cfg.Recovery.ConfidenceThreshold
	var classes []int
	var confs []float64
	var err error
	if st.flt != nil {
		gate = st.flt.ConfidenceGate()
		classes, confs, err = st.flt.ScoreBatch(encoded, st.flt.Temperature())
	} else {
		classes, confs, err = st.rep.Score(encoded, s.cfg.Recovery.Temperature)
	}
	if err != nil {
		for _, r := range live {
			s.metrics.errors.Add(1)
			r.resp <- result{err: err}
		}
		sc.live = sc.live[:0]
		return
	}
	if cap(sc.preds) < len(encoded) {
		sc.preds = make([]Prediction, len(encoded))
	}
	preds := sc.preds[:len(encoded)]
	sc.preds = preds
	for i := range encoded {
		preds[i] = Prediction{Class: classes[i], Confidence: confs[i], Trusted: confs[i] >= gate}
	}

	s.metrics.observeBatch(preds)
	for i, p := range preds {
		if p.Trusted && !s.cfg.DisableRecovery {
			s.enqueueRecovery(encoded[i])
		}
		live[i].resp <- result{pred: p}
	}

	// Drop request pointers so finished requests are collectable while
	// the scratch idles between batches.
	for i := range live {
		live[i] = nil
	}
	sc.live = sc.live[:0]
}

// enqueueRecovery hands a trusted query to the background loop
// without ever blocking the serving path.
func (s *Server) enqueueRecovery(q *bitvec.Vector) {
	select {
	case s.recCh <- q:
	default:
		s.metrics.recoveryDropped.Add(1)
	}
}

// recoveryLoop is the background self-healing goroutine: it drains
// the trusted-query buffer into the live replica (or, in fleet mode,
// one replica of the fleet, round-robin), whose writer lock serializes
// each observation with every other model write. A /train or /restore
// may swap in a new model between enqueue and observation; the query
// then lands on the current state, or on the abandoned one, whose
// writes nobody reads. It exits once the channel is closed and fully
// drained, so Close never abandons queued observations.
func (s *Server) recoveryLoop() {
	defer s.bg.Done()
	for q := range s.recCh {
		switch st := s.live.Load(); {
		case st == nil:
		case st.flt != nil:
			st.flt.Observe(q)
		default:
			st.rep.Observe(q)
		}
	}
}

// ScrubNow advances the mounted fault process by elapsed wall time
// under the replica's writer lock — a fault process writes the
// deployed class hypervectors through the same attack.Image the drills
// use. It reports what the substrate flipped; with no substrate
// mounted (or no model installed, or in fleet mode, where each replica
// scrubs itself) it is a no-op. The periodic scrubber calls this on
// every tick; tests and drills call it directly to simulate time
// deterministically.
func (s *Server) ScrubNow(elapsed time.Duration) (attack.Result, error) {
	st := s.live.Load()
	if st == nil || st.rep == nil || s.cfg.Substrate == nil {
		return attack.Result{}, nil
	}
	res, err := st.rep.Advance(elapsed)
	s.metrics.scrubs.Add(1)
	s.metrics.scrubBits.Add(int64(res.BitsFlipped))
	return res, err
}

// SetProbe installs a labeled held-out set for the accuracy probe
// (copied, so callers may reuse their slices). Every sample must have
// the first one's arity: the probe encodes the set as one batch.
func (s *Server) SetProbe(xs [][]float64, ys []int) error {
	features := 0
	if len(xs) > 0 {
		features = len(xs[0])
	}
	if err := checkProbe(xs, ys, features); err != nil {
		return err
	}
	cx := make([][]float64, len(xs))
	for i, x := range xs {
		cx[i] = append([]float64(nil), x...)
	}
	cy := append([]int(nil), ys...)
	s.probeMu.Lock()
	s.probeX, s.probeY = cx, cy
	s.probeMu.Unlock()
	return nil
}

// checkProbe rejects a probe set whose label count differs from its
// sample count or that holds a sample of other than the given arity.
func checkProbe(xs [][]float64, ys []int, features int) error {
	if len(xs) != len(ys) {
		return fmt.Errorf("%w: %d probe samples but %d labels", ErrBadInput, len(xs), len(ys))
	}
	for i, x := range xs {
		if len(x) != features {
			return fmt.Errorf("%w: probe sample %d has %d features, want %d", ErrBadInput, i, len(x), features)
		}
	}
	return nil
}

// ProbeNow evaluates held-out accuracy immediately. It reports false
// when no probe set is installed, no model is loaded, or the probe
// set's arity does not match the current encoder.
func (s *Server) ProbeNow() (float64, bool) {
	s.probeMu.Lock()
	xs, ys := s.probeX, s.probeY
	s.probeMu.Unlock()
	st := s.live.Load()
	if st == nil || len(xs) == 0 || len(xs[0]) != st.sys.Features() {
		return 0, false
	}
	// Encode lock-free (immutable encoder), score against the current
	// epoch — the probe is a reader like any predict batch. In fleet
	// mode the probe measures what clients actually get — quorum
	// accuracy — not any single replica.
	encoded := st.sys.EncodeAllParallel(xs, allCores)
	var acc float64
	if st.flt != nil {
		classes, _, err := st.flt.ScoreBatch(encoded, st.flt.Temperature())
		if err != nil {
			return 0, false
		}
		hit := 0
		for i, c := range classes {
			if c == ys[i] {
				hit++
			}
		}
		acc = float64(hit) / float64(len(ys))
	} else {
		ep := st.rep.Acquire()
		acc = ep.Frozen().AccuracyParallel(encoded, ys, allCores)
		ep.Release()
	}
	s.metrics.recordProbe(acc)
	return acc, true
}

// Close drains and stops the server: the pool answers every accepted
// request, the recovery goroutine finishes its backlog, and the ticker
// loops (probe, scrubber, watchdog) stop. Close is idempotent;
// requests after it return ErrClosed.
func (s *Server) Close() {
	if !s.closed.CompareAndSwap(false, true) {
		return
	}
	s.pool.close() // flush pending batches; batchers are the only recCh senders
	close(s.recCh) // recovery drains the backlog, then exits
	close(s.done)  // stop the ticker loops
	s.bg.Wait()
	if flt := s.fleet(); flt != nil {
		flt.Close() // stop per-replica scrubbers and the sweep loop
	}
}
