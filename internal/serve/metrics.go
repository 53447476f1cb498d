package serve

import (
	"math"
	"sync/atomic"
	"time"

	"repro/internal/bitvec"
	"repro/internal/cluster"
	"repro/internal/fleet"
	"repro/internal/hdc/model"
	"repro/internal/recovery"
	"repro/internal/substrate"
)

// metrics holds the server's operational counters. Everything is
// atomic so the serving path never takes a lock to count; floats
// accumulate via CAS on their bit patterns.
type metrics struct {
	predicts        atomic.Int64  // answered predictions
	errors          atomic.Int64  // rejected requests (bad input, no model)
	batches         atomic.Int64  // batches flushed
	batchedItems    atomic.Int64  // predictions summed over batches
	confidenceSum   atomic.Uint64 // float bits: Σ confidence
	trusted         atomic.Int64  // predictions that cleared the recovery gate
	recoveryDropped atomic.Int64  // trusted queries dropped on a full queue

	attacks    atomic.Int64 // /attack drills executed
	attackBits atomic.Int64 // total bits flipped by drills

	probes   atomic.Int64  // accuracy probes run
	probeAcc atomic.Uint64 // float bits: latest probe accuracy
	probeAt  atomic.Int64  // unix nanos of the latest probe

	scrubs        atomic.Int64 // substrate scrub ticks run
	scrubBits     atomic.Int64 // bits the substrate flipped (decay/wear/campaign)
	watchdogRuns  atomic.Int64 // watchdog windows evaluated
	watchdogTrips atomic.Int64 // watchdog escalations (tier 0 → 1)
	rollbacks     atomic.Int64 // verified checkpoint rollbacks executed
	checkpoints   atomic.Int64 // verified checkpoints captured
}

// addFloat accumulates delta into a float64 stored as bits in u.
func addFloat(u *atomic.Uint64, delta float64) {
	for {
		old := u.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if u.CompareAndSwap(old, next) {
			return
		}
	}
}

// observeBatch records one flushed batch of predictions.
func (m *metrics) observeBatch(preds []Prediction) {
	m.batches.Add(1)
	m.batchedItems.Add(int64(len(preds)))
	m.predicts.Add(int64(len(preds)))
	sum := 0.0
	trusted := 0
	for _, p := range preds {
		sum += p.Confidence
		if p.Trusted {
			trusted++
		}
	}
	addFloat(&m.confidenceSum, sum)
	m.trusted.Add(int64(trusted))
}

// recordAttack records one fault-injection drill.
func (m *metrics) recordAttack(bitsFlipped int) {
	m.attacks.Add(1)
	m.attackBits.Add(int64(bitsFlipped))
}

// recordProbe records the latest held-out accuracy measurement.
func (m *metrics) recordProbe(acc float64) {
	m.probes.Add(1)
	m.probeAcc.Store(math.Float64bits(acc))
	m.probeAt.Store(time.Now().UnixNano())
}

// ModelInfo describes the installed model in a metrics snapshot.
type ModelInfo struct {
	Classes    int `json:"classes"`
	Dimensions int `json:"dimensions"`
	Features   int `json:"features"`
	// Backend names the scoring representation: "dense" (k class
	// hypervectors) or "loghd" (log-compressed planes).
	Backend string `json:"backend"`
	// StorageBits is the deployed class-memory footprint of that
	// backend — the denominator of the LogHD compression ratio.
	StorageBits int `json:"storage_bits"`
}

// RecoveryInfo reports the self-healing loop's state.
type RecoveryInfo struct {
	Enabled bool `json:"enabled"`
	// Queued is the current trusted-query backlog.
	Queued int `json:"queued"`
	// Dropped counts trusted queries discarded on a full queue.
	Dropped int64          `json:"dropped"`
	Stats   recovery.Stats `json:"stats"`
}

// SubstrateInfo reports the mounted fault process and scrubber
// activity.
type SubstrateInfo struct {
	Enabled bool   `json:"enabled"`
	Kind    string `json:"kind,omitempty"`
	// Scrubs is how many scrub ticks the server ran; BitsDecayed is
	// what they flipped in deployed memory.
	Scrubs      int64 `json:"scrubs"`
	BitsDecayed int64 `json:"bits_decayed"`
	// RecoveryWritesCharged counts recovery substitution writes billed
	// to the installed model's substrate as wear traffic.
	RecoveryWritesCharged int64 `json:"recovery_writes_charged"`
	// Process is the fault process's own cumulative counters.
	Process substrate.Stats `json:"process"`
}

// WatchdogInfo reports the degradation watchdog's posture and history.
type WatchdogInfo struct {
	Enabled bool `json:"enabled"`
	// Tier is the current posture: 0 normal, 1 escalated.
	Tier        int   `json:"tier"`
	Windows     int64 `json:"windows"`
	Trips       int64 `json:"trips"`
	Rollbacks   int64 `json:"rollbacks"`
	Checkpoints int64 `json:"checkpoints"`
	// CheckpointAccuracy is the stamped accuracy of the current
	// rollback target; -1 when none is held.
	CheckpointAccuracy float64 `json:"checkpoint_accuracy"`
}

// ProbeInfo reports the latest held-out accuracy probe.
type ProbeInfo struct {
	Runs     int64   `json:"runs"`
	Accuracy float64 `json:"accuracy"`
	// AgeSeconds is how stale the reading is; -1 when no probe ran yet.
	AgeSeconds float64 `json:"age_seconds"`
}

// Metrics is the JSON document served at /metrics.
type Metrics struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Ready         bool    `json:"ready"`
	// Kernel is the bitvec SIMD kernel table this process dispatched to
	// ("portable", "avx2", "avx512popcnt", "neon"): a fleet operator
	// can spot a node that silently fell back to the scalar path.
	Kernel         string        `json:"kernel"`
	Model          *ModelInfo    `json:"model,omitempty"`
	Predictions    int64         `json:"predictions"`
	Errors         int64         `json:"errors"`
	Batches        int64         `json:"batches"`
	MeanBatchSize  float64       `json:"mean_batch_size"`
	MeanConfidence float64       `json:"mean_confidence"`
	Trusted        int64         `json:"trusted"`
	Attacks        int64         `json:"attacks"`
	AttackBits     int64         `json:"attack_bits_flipped"`
	Recovery       RecoveryInfo  `json:"recovery"`
	Substrate      SubstrateInfo `json:"substrate"`
	Watchdog       WatchdogInfo  `json:"watchdog"`
	Probe          ProbeInfo     `json:"probe"`
	// Fleet carries per-replica and fleet-wide counters (nil in
	// single-model mode; the full document also lives at /fleet).
	Fleet *fleet.Status `json:"fleet,omitempty"`
	// Node carries the node-API counters (nil unless this server runs
	// as a cluster node).
	Node *cluster.NodeInfo `json:"node,omitempty"`
	// Journal carries the tamper-evident journal's chain state — seq,
	// sealed seq, seal count, and the append-error counter that makes a
	// failing sink visible (nil when no journal is attached).
	Journal *fleet.JournalStats `json:"journal,omitempty"`
	// Epochs reports the RCU read path's publication counters: epochs
	// published, retired images recycled back to the vector pool, and
	// the reader-pinned backlog (nil in fleet mode, where each replica
	// runs its own chain).
	Epochs *model.EpochStats `json:"epochs,omitempty"`
}

// Snapshot assembles the current metrics document.
func (s *Server) MetricsSnapshot() Metrics {
	m := &s.metrics
	out := Metrics{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Kernel:        bitvec.KernelName(),
		Predictions:   m.predicts.Load(),
		Errors:        m.errors.Load(),
		Batches:       m.batches.Load(),
		Trusted:       m.trusted.Load(),
		Attacks:       m.attacks.Load(),
		AttackBits:    m.attackBits.Load(),
	}
	if items := m.batchedItems.Load(); items > 0 {
		out.MeanBatchSize = float64(items) / float64(out.Batches)
		out.MeanConfidence = math.Float64frombits(m.confidenceSum.Load()) / float64(items)
	}
	out.Recovery = RecoveryInfo{
		Enabled: !s.cfg.DisableRecovery,
		Queued:  len(s.recCh),
		Dropped: m.recoveryDropped.Load(),
	}
	out.Substrate = SubstrateInfo{
		Enabled:     s.cfg.Substrate != nil,
		Scrubs:      m.scrubs.Load(),
		BitsDecayed: m.scrubBits.Load(),
	}
	if s.cfg.Journal != nil {
		js := s.cfg.Journal.Stats()
		out.Journal = &js
	}
	// The whole live-state section is lock-free: model shape is
	// immutable per install, recovery.Stats() is internally mutexed, and
	// the replica re-publishes its substrate counters atomically after
	// every write that touches the fault process (substrate.Stats()
	// itself is not thread-safe). The substrate numbers may therefore
	// trail the live process by at most one in-flight write — an
	// acceptable staleness for a scrape endpoint, in exchange for never
	// contending with writers.
	if st := s.live.Load(); st != nil {
		out.Ready = true
		out.Model = &ModelInfo{
			Classes:     st.sys.Classes(),
			Dimensions:  st.sys.Dimensions(),
			Features:    st.sys.Features(),
			Backend:     st.sys.Backend(),
			StorageBits: st.sys.StorageBits(),
		}
		if rep := st.rep; rep != nil {
			if rec := rep.Recoverer(); rec != nil {
				out.Recovery.Stats = rec.Stats()
			}
			out.Substrate.Kind, out.Substrate.Process, _ = rep.Substrate()
			out.Substrate.RecoveryWritesCharged = rep.RecoveryWrites()
			es := rep.EpochStats()
			out.Epochs = &es
		}
	}
	out.Watchdog = WatchdogInfo{
		Enabled:     s.cfg.Watchdog.Interval > 0,
		Windows:     m.watchdogRuns.Load(),
		Trips:       m.watchdogTrips.Load(),
		Rollbacks:   m.rollbacks.Load(),
		Checkpoints: m.checkpoints.Load(),
	}
	s.wd.mu.Lock()
	out.Watchdog.Tier = s.wd.tier
	out.Watchdog.CheckpointAccuracy = -1
	if s.wd.cp != nil {
		out.Watchdog.CheckpointAccuracy = s.wd.cp.accuracy
	}
	s.wd.mu.Unlock()
	out.Probe = ProbeInfo{Runs: m.probes.Load(), AgeSeconds: -1}
	if out.Probe.Runs > 0 {
		out.Probe.Accuracy = math.Float64frombits(m.probeAcc.Load())
		out.Probe.AgeSeconds = time.Since(time.Unix(0, m.probeAt.Load())).Seconds()
	}
	if flt := s.Fleet(); flt != nil {
		st := flt.Status()
		out.Fleet = &st
	}
	if s.node != nil {
		out.Node = s.node.Info()
	}
	return out
}
