// Package fleet runs N replicas of one deployed HDC model as a single
// robust service — the layer that turns "one self-healing model" into
// "a self-healing deployment".
//
// Each replica holds private deployed class hypervectors (the
// attackable memory) in its own faulty memory. Because the holographic
// representation degrades gracefully and *independently* per replica,
// the bitwise majority across replicas is closer to the trained model
// than the average replica, and the replication algorithm exploits
// that three ways:
//
//   - Quorum inference (ScoreBatch): a batch fans to a read-quorum of
//     members and the predictions are majority-voted, with escalation
//     to the full active set on disagreement. While the members are
//     provably in sync a fast path scores on a single one.
//   - Anti-entropy repair (SweepNow, antientropy.go): members report
//     per-chunk hashes of their class hypervectors, only chunks whose
//     hashes disagree are fetched and majority-voted, and each
//     minority chunk is overwritten with the majority chunk.
//   - Member lifecycle: a member whose divergence exceeds the
//     quarantine threshold leaves rotation, is re-imaged from the
//     most-agreeing peer's stamped snapshot (core.SaveStamped, CRC-
//     sealed), and returns to rotation; an unreachable member is
//     parked Down until health probes earn it back.
//
// Dispatcher (dispatch.go) is the one implementation of that
// algorithm, written against the Member interface. Fleet drives it over
// in-process replicas: forks of one seed system, each a Replica
// (replica.go) with its own recovery.Recoverer, substrate.FaultProcess,
// epoch chain and writer lock. internal/cluster drives it over servehd
// nodes in other processes, each serving one Replica of its own.
//
// Locking: each replica carries its own single-writer RWMutex
// (innermost). Sweeps serialize on the dispatcher's aeMu and never
// hold two replica locks at once — donor images are serialized under
// the donor's read lock, released, then restored under the target's
// write lock.
package fleet

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/recovery"
	"repro/internal/stats"
	"repro/internal/substrate"
)

// ErrNoReplicas reports a call with no member in rotation. In process
// the lifecycle makes this unreachable (quarantine keeps at least a
// quorum active); over the network every node may be down.
var ErrNoReplicas = errors.New("fleet: no active replicas")

// maxReplicas bounds the fleet; bitvec.MajorityInto's vote counter
// caps at 63 lanes and no deployment needs more.
const maxReplicas = 63

// Config parameterizes a fleet. Its Quorum, AntiEntropy, Journal and
// ModelID are the replication settings NewDispatcher validates and
// defaults — for an in-process fleet and a cluster coordinator alike.
type Config struct {
	// Replicas is N, the fleet size (default 3).
	Replicas int
	// Quorum is the read-quorum fanned to on each prediction (default
	// majority, N/2+1; clamped to [1, Replicas]). 1 trades detection
	// latency for throughput; Replicas makes every prediction a full
	// vote.
	Quorum int
	// Seed derives the per-replica substrate and recovery seeds, so
	// replica fault processes diverge deterministically.
	Seed uint64

	// DisableRecovery turns per-replica self-healing off.
	DisableRecovery bool
	// Recovery parameterizes each replica's recoverer (zero value
	// selects recovery.DefaultConfig()).
	Recovery recovery.Config

	// Substrate mounts each replica on its own fault process (nil
	// disables; the per-replica Seed field is derived from Config.Seed).
	Substrate *substrate.Config
	// ScrubTick is the per-replica scrubber period (default 100ms;
	// effective only with a Substrate). AdvanceReplica remains
	// available for deterministic drills.
	ScrubTick time.Duration

	// AntiEntropy parameterizes majority repair and the quarantine
	// ladder.
	AntiEntropy AntiEntropyConfig

	// Journal receives lifecycle and repair events (nil drops them).
	Journal *Journal

	// ModelID tags this fleet's journal events with a tenant model id.
	// Tagging happens at the source, so several tenants' fleets can
	// share one journal. Empty leaves events untagged — the default
	// tenant.
	ModelID string
}

// AntiEntropyConfig parameterizes the background repair loop.
type AntiEntropyConfig struct {
	// Interval enables the periodic sweep loop (0 disables it; SweepNow
	// is always available for drills and tests).
	Interval time.Duration
	// Chunks is how many pieces each class hypervector is compared in
	// (default 64). Smaller chunks localize repairs; every member hashes
	// its whole model per sweep regardless, and only divergent chunks
	// are fetched.
	Chunks int
	// QuarantineDivergence is the divergence fraction (bits disagreeing
	// with the majority / total model bits) beyond which a replica is
	// pulled from rotation and re-seeded instead of chunk-patched
	// (default 0.05). Chunk repair assumes damage is the minority at
	// every position; a replica this far gone pollutes the vote itself.
	QuarantineDivergence float64
	// MinReseedAgreement is the floor a donor's stamped agreement (1 -
	// divergence at the last sweep) must clear for its image to be used
	// as a reseed source (default 0.5).
	MinReseedAgreement float64
}

func (c *Config) fillDefaults() {
	if c.Replicas <= 0 {
		c.Replicas = 3
	}
	if c.Quorum <= 0 {
		c.Quorum = c.Replicas/2 + 1
	}
	if c.Quorum > c.Replicas {
		c.Quorum = c.Replicas
	}
	if c.Recovery == (recovery.Config{}) {
		c.Recovery = recovery.DefaultConfig()
	}
	if c.ScrubTick <= 0 {
		c.ScrubTick = 100 * time.Millisecond
	}
	if c.AntiEntropy.Chunks <= 0 {
		c.AntiEntropy.Chunks = 64
	}
	if c.AntiEntropy.QuarantineDivergence <= 0 {
		c.AntiEntropy.QuarantineDivergence = 0.05
	}
	if c.AntiEntropy.MinReseedAgreement <= 0 {
		c.AntiEntropy.MinReseedAgreement = 0.5
	}
}

// Validate rejects unusable configurations. Float knobs go through the
// shared stats helpers so NaN/Inf are rejected uniformly (NaN slips
// past the `v <= 0` default tests in fillDefaults, like every other
// zero-means-default config in this repository).
func (c Config) Validate() error {
	if c.Replicas < 0 || c.Replicas > maxReplicas {
		return fmt.Errorf("fleet: replicas %d out of [1,%d]", c.Replicas, maxReplicas)
	}
	n := c.Replicas
	if n == 0 {
		n = 3
	}
	if c.Quorum < 0 || c.Quorum > n {
		return fmt.Errorf("fleet: quorum %d out of [1,%d]", c.Quorum, n)
	}
	if err := stats.CheckFinite("fleet: quarantine divergence", c.AntiEntropy.QuarantineDivergence); err != nil {
		return err
	}
	if c.AntiEntropy.QuarantineDivergence != 0 {
		if err := stats.CheckInterval("fleet: quarantine divergence", c.AntiEntropy.QuarantineDivergence, "(0,1]"); err != nil {
			return err
		}
	}
	if err := stats.CheckFinite("fleet: min reseed agreement", c.AntiEntropy.MinReseedAgreement); err != nil {
		return err
	}
	if c.AntiEntropy.MinReseedAgreement != 0 {
		if err := stats.CheckInterval("fleet: min reseed agreement", c.AntiEntropy.MinReseedAgreement, "(0,1]"); err != nil {
			return err
		}
	}
	return nil
}

// Fleet is the in-process replica fleet: a Dispatcher over N forks of
// one seed system, plus the hooks only in-process replicas have —
// recovery observation, fault advances and scrubbing, and direct
// access for drills.
type Fleet struct {
	*Dispatcher[*bitvec.Vector]
	replicas []*Replica
}

// New builds a fleet of cfg.Replicas forks of seed. The seed system
// itself is never attacked or mutated — callers keep using it for
// encoding (the encoder is immutable and shared by every fork, so a
// query encoded once scores identically on any replica).
func New(seed *core.System, cfg Config) (*Fleet, error) {
	if seed == nil {
		return nil, errors.New("fleet: nil seed system")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.fillDefaults()
	f := &Fleet{}
	members := make([]Member[*bitvec.Vector], cfg.Replicas)
	for i := range members {
		var rc *recovery.Config
		if !cfg.DisableRecovery {
			rc = &cfg.Recovery
		}
		var sc *substrate.Config
		if cfg.Substrate != nil {
			c := *cfg.Substrate
			c.Seed = derivedSeed(cfg.Seed, i, 0x50b5)
			sc = &c
		}
		r, err := NewReplica(seed.Fork(), rc, derivedSeed(cfg.Seed, i, 0x7ec0), sc)
		if err != nil {
			return nil, err
		}
		f.replicas = append(f.replicas, r)
		members[i] = member{r}
	}
	d, err := NewDispatcher(members, cfg, Ladder{})
	if err != nil {
		return nil, err
	}
	f.Dispatcher = d
	// Forks of one seed are bit-identical by construction, so the fast
	// path starts armed without waiting for a sweep to prove it.
	f.health.Store(1)
	if cfg.Substrate != nil {
		for id := range f.replicas {
			// The scrubber feeds the fault process real elapsed time
			// (the single-model scrubber's pattern).
			last := time.Now()
			f.every(cfg.ScrubTick, func(now time.Time) {
				_, _ = f.AdvanceReplica(id, now.Sub(last))
				last = now
			})
		}
	}
	return f, nil
}

// derivedSeed decorrelates per-replica randomness: same campaign
// parameters, different weak cells and victims per replica.
func derivedSeed(base uint64, id int, salt uint64) uint64 {
	x := base ^ salt ^ (uint64(id)+1)*0x9E3779B97F4A7C15
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	return x | 1 // never 0: several constructors treat 0 as "default"
}

// ConfidenceGate returns the recovery confidence threshold the fleet's
// replicas trust pseudo-labels at (callers gate Trusted with it).
func (f *Fleet) ConfidenceGate() float64 { return f.cfg.Recovery.ConfidenceThreshold }

// Temperature returns the softmax temperature replicas score at.
func (f *Fleet) Temperature() float64 { return f.cfg.Recovery.Temperature }

// SweepNow runs one anti-entropy sweep (Dispatcher.SweepNow). Replicas
// in process share one shape and cannot be unreachable, so it never
// fails.
func (f *Fleet) SweepNow() SweepReport {
	rep, _ := f.Dispatcher.SweepNow()
	return rep
}

// Observe feeds one trusted query to a replica's recoverer (round-
// robin over actives). This is the fleet analogue of serve's recovery
// loop; the fleet stays in rotation while the replica self-heals
// because only one replica's write lock is held.
func (f *Fleet) Observe(q *bitvec.Vector) {
	act := f.actives()
	if len(act) == 0 {
		return
	}
	id := act[f.cursor.Add(1)%uint64(len(act))].id
	if d := f.replicas[id].Observe(q); d > 0 {
		f.disarm()
		f.journalAppend(Event{Kind: EventRecovery, Replica: id, Class: -1, Chunk: -1, Bits: d})
	}
}

// AdvanceReplica advances one replica's fault process by elapsed
// simulated wall time — the deterministic drill hook mirroring
// serve.ScrubNow. It is a no-op without a substrate.
func (f *Fleet) AdvanceReplica(id int, elapsed time.Duration) (int, error) {
	r, err := f.replica(id)
	if err != nil {
		return 0, err
	}
	res, err := r.Advance(elapsed)
	if res.BitsFlipped > 0 {
		f.disarm()
	}
	return res.BitsFlipped, err
}

// WithReplica runs fn with exclusive access to one replica's system —
// the hook attack drills use to corrupt a single fleet member. Any
// external mutation invalidates the fast path.
func (f *Fleet) WithReplica(id int, fn func(*core.System) error) error {
	return f.Mutate(id, func() error { return f.replicas[id].Mutate(fn) })
}

func (f *Fleet) replica(id int) (*Replica, error) {
	if id < 0 || id >= len(f.replicas) {
		return nil, fmt.Errorf("fleet: no replica %d", id)
	}
	return f.replicas[id], nil
}
