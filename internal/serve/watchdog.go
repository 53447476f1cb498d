package serve

import (
	"bytes"
	"math"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/recovery"
	"repro/internal/stats"
)

// WatchdogConfig parameterizes the degradation watchdog: a periodic
// health check over the held-out probe (SetProbe) and the live
// confidence distribution, with a tiered response. Consecutive
// unhealthy windows first *escalate* — the recovery loop's
// substitution rate is multiplied so self-healing outpaces the fault
// flux — and, if the model still does not stabilize, *roll back* to
// the last verified checkpoint. Hysteresis on both edges (tripWindows
// to act, clearWindows to stand down) keeps probe noise from flapping
// the posture.
type WatchdogConfig struct {
	// Interval enables the periodic watchdog loop (0 disables it;
	// WatchdogNow remains available for manual drills and tests).
	Interval time.Duration
	// AccuracyDrop is how far below the checkpoint's stamped accuracy
	// the probe may fall before the window counts as unhealthy
	// (default 0.02 — the paper's "within a couple points" band).
	AccuracyDrop float64
	// MinCheckpointAccuracy is the floor a snapshot's accuracy stamp
	// must clear to be checkpointed or rolled back to — and the floor
	// the /restore handler enforces on stamped uploads (default 0.5).
	MinCheckpointAccuracy float64
}

// Fixed watchdog parameters.
const (
	// confidenceDrop flags a window whose mean serving confidence fell
	// this far below the healthy baseline. It is the label-free signal:
	// confidence collapse precedes accuracy loss when no probe set is
	// installed.
	confidenceDrop = 0.05
	// tripWindows is how many consecutive unhealthy windows arm each
	// response tier.
	tripWindows = 2
	// clearWindows is how many consecutive healthy windows stand the
	// escalation down.
	clearWindows = 2
	// escalateFactor multiplies the recovery substitution rate at tier
	// 1; the rate is capped at 1.
	escalateFactor = 2
)

// validate rejects non-finite float knobs before fillDefaults's
// `v <= 0` default tests run — NaN compares false against every
// threshold, so it would otherwise survive default-filling and poison
// the watchdog's health comparisons (which would then never trip).
func (c WatchdogConfig) validate() error {
	for _, knob := range []struct {
		name string
		v    float64
	}{
		{"watchdog: accuracy drop", c.AccuracyDrop},
		{"watchdog: min checkpoint accuracy", c.MinCheckpointAccuracy},
	} {
		if err := stats.CheckFinite(knob.name, knob.v); err != nil {
			return err
		}
	}
	return nil
}

func (c *WatchdogConfig) fillDefaults() {
	if c.AccuracyDrop <= 0 {
		c.AccuracyDrop = 0.02
	}
	if c.MinCheckpointAccuracy <= 0 {
		c.MinCheckpointAccuracy = 0.5
	}
}

// checkpoint is a verified rollback target: a sealed SaveStamped image
// plus the probe accuracy it was stamped with.
type checkpoint struct {
	payload  []byte
	accuracy float64
}

// watchdogState is the watchdog's posture between windows. Its mutex
// nests outside the replica's writer lock; see the Server field
// comment.
type watchdogState struct {
	mu sync.Mutex
	// tier is the current response posture: 0 normal, 1 escalated.
	tier int
	// badStreak / goodStreak implement the hysteresis counters.
	badStreak, goodStreak int
	// baseConf is an EWMA of healthy-window mean confidence.
	baseConf    float64
	baseConfSet bool
	// lastItems / lastConfSum window the global confidence counters.
	lastItems   int64
	lastConfSum float64
	// baseSub is the substitution rate to restore on de-escalation.
	baseSub float64
	// cp is the best verified checkpoint so far.
	cp *checkpoint
}

// reset discards the posture and checkpoint (a new model was
// installed; they describe the old one).
func (w *watchdogState) reset() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.tier = 0
	w.badStreak, w.goodStreak = 0, 0
	w.baseConf, w.baseConfSet = 0, false
	w.baseSub = 0
	w.cp = nil
	// The confidence window deliberately survives: the counters are
	// global, so resetting the cursor would double-count old traffic.
}

// WatchdogReport is one watchdog window's observations and actions.
type WatchdogReport struct {
	// ProbeAccuracy is this window's held-out accuracy (ProbeOK false
	// when no probe set or model is installed).
	ProbeAccuracy float64 `json:"probe_accuracy"`
	ProbeOK       bool    `json:"probe_ok"`
	// MeanConfidence is the mean serving confidence over the window's
	// traffic; NaN when the window served nothing.
	MeanConfidence float64 `json:"mean_confidence"`
	// Unhealthy reports whether this window counted against the trip
	// hysteresis.
	Unhealthy bool `json:"unhealthy"`
	// Tier is the posture after this window (0 normal, 1 escalated).
	Tier int `json:"tier"`
	// Escalated / RolledBack / Checkpointed report this window's
	// actions.
	Escalated    bool `json:"escalated"`
	RolledBack   bool `json:"rolled_back"`
	Checkpointed bool `json:"checkpointed"`
}

// WatchdogNow runs one watchdog window immediately: probe, compare
// against the checkpoint stamp and the confidence baseline, and apply
// the tiered response. The periodic loop calls this on every tick;
// tests call it directly to drive windows deterministically.
func (s *Server) WatchdogNow() WatchdogReport {
	cfg := s.cfg.Watchdog
	s.metrics.watchdogRuns.Add(1)
	rep := WatchdogReport{MeanConfidence: math.NaN()}
	rep.ProbeAccuracy, rep.ProbeOK = s.ProbeNow()

	w := &s.wd
	w.mu.Lock()
	defer w.mu.Unlock()

	// Mean confidence over the traffic served since the last window.
	items := s.metrics.batchedItems.Load()
	confSum := math.Float64frombits(s.metrics.confidenceSum.Load())
	if d := items - w.lastItems; d > 0 {
		rep.MeanConfidence = (confSum - w.lastConfSum) / float64(d)
	}
	w.lastItems, w.lastConfSum = items, confSum

	switch {
	case rep.ProbeOK && w.cp != nil && rep.ProbeAccuracy < w.cp.accuracy-cfg.AccuracyDrop:
		rep.Unhealthy = true
	case !math.IsNaN(rep.MeanConfidence) && w.baseConfSet && rep.MeanConfidence < w.baseConf-confidenceDrop:
		rep.Unhealthy = true
	}

	if rep.Unhealthy {
		w.goodStreak = 0
		w.badStreak++
		if w.badStreak >= tripWindows {
			w.badStreak = 0
			if w.tier == 0 {
				rep.Escalated = s.escalateLocked(w)
				w.tier = 1
				s.metrics.watchdogTrips.Add(1)
			} else {
				rep.RolledBack = s.rollbackLocked(w)
				if rep.RolledBack {
					s.metrics.rollbacks.Add(1)
				}
			}
		}
	} else {
		w.badStreak = 0
		w.goodStreak++
		if !math.IsNaN(rep.MeanConfidence) {
			if !w.baseConfSet {
				w.baseConf, w.baseConfSet = rep.MeanConfidence, true
			} else {
				w.baseConf = 0.8*w.baseConf + 0.2*rep.MeanConfidence
			}
		}
		if w.tier == 1 && w.goodStreak >= clearWindows {
			s.deescalateLocked(w)
			w.tier = 0
		}
		// Checkpoint only at normal posture — an escalated window that
		// happens to probe well may still be mid-degradation — and only
		// when the stamp would not regress the rollback floor.
		if w.tier == 0 && rep.ProbeOK && rep.ProbeAccuracy >= cfg.MinCheckpointAccuracy &&
			(w.cp == nil || rep.ProbeAccuracy >= w.cp.accuracy) {
			rep.Checkpointed = s.checkpointLocked(w, rep.ProbeAccuracy)
			if rep.Checkpointed {
				s.metrics.checkpoints.Add(1)
			}
		}
	}
	rep.Tier = w.tier
	s.journalWatchdog(rep)
	return rep
}

// journalWatchdog records this window's watchdog actions in the event
// journal (no-op without one). Only actions are journaled — a healthy
// window that did nothing leaves no line.
func (s *Server) journalWatchdog(rep WatchdogReport) {
	if s.cfg.Journal == nil {
		return
	}
	if rep.Escalated {
		s.journalAppend(fleet.Event{Kind: fleet.EventWatchdog, Replica: -1, Class: -1, Chunk: -1,
			Tier: rep.Tier, Detail: "escalate"})
	}
	if rep.RolledBack {
		s.journalAppend(fleet.Event{Kind: fleet.EventWatchdog, Replica: -1, Class: -1, Chunk: -1,
			Tier: rep.Tier, Detail: "rollback"})
	}
	if rep.Checkpointed {
		s.journalAppend(fleet.Event{Kind: fleet.EventWatchdog, Replica: -1, Class: -1, Chunk: -1,
			Tier: rep.Tier, Detail: "checkpoint"})
	}
}

// journalAppend stamps the server's tenant id (when configured) onto
// the event and appends it to the configured journal. Stamping at the
// source keeps a journal shared by many registry tenants correctly
// attributed; single-model servers leave ModelID empty and write the
// pre-tenancy untagged format.
func (s *Server) journalAppend(e fleet.Event) {
	if e.Model == "" {
		e.Model = s.cfg.ModelID
	}
	_ = s.cfg.Journal.Append(e)
}

// escalateLocked raises the live recovery substitution rate by
// escalateFactor (capped at 1), remembering the base rate to restore.
func (s *Server) escalateLocked(w *watchdogState) bool {
	rec := s.recoverer()
	if rec == nil {
		return false
	}
	base := rec.SubstitutionRate()
	if err := rec.SetSubstitutionRate(math.Min(1, base*escalateFactor)); err != nil {
		return false
	}
	w.baseSub = base
	return true
}

// recoverer returns the live replica's recoverer (nil without one, and
// in fleet mode).
func (s *Server) recoverer() *recovery.Recoverer {
	if st := s.live.Load(); st != nil && st.rep != nil {
		return st.rep.Recoverer()
	}
	return nil
}

// deescalateLocked restores the pre-escalation substitution rate.
func (s *Server) deescalateLocked(w *watchdogState) {
	if w.baseSub <= 0 {
		return
	}
	if rec := s.recoverer(); rec != nil {
		_ = rec.SetSubstitutionRate(w.baseSub)
	}
	w.baseSub = 0
}

// checkpointLocked captures a sealed, stamped image of the live system
// under the replica's read lock (a concurrent recovery write or scrub
// would tear it otherwise; the read path is unaffected — it scores
// epochs, not the live model). With a sealed journal attached, the
// image is anchored to the latest sealed root so the rollback path can
// re-verify the checkpoint's lineage before trusting it.
func (s *Server) checkpointLocked(w *watchdogState, acc float64) bool {
	st := s.live.Load()
	if st == nil {
		return false
	}
	var buf bytes.Buffer
	if err := st.save(&buf, acc, s.anchor()); err != nil {
		return false
	}
	w.cp = &checkpoint{payload: buf.Bytes(), accuracy: acc}
	return true
}

// rollbackLocked verifies the checkpoint through the /restore
// admission rules (Config.AdmitSnapshot: CRC trailer, accuracy stamp
// floor, and journal anchor) plus one of its own — a rollback target
// must carry a stamp — and re-seeds the live replica from it: a
// full-image rewrite, charged to the substrate as write traffic and
// counted as a refresh (decayed cells recharge; stuck cells stay
// stuck). A checkpoint that fails verification, or no longer fits the
// live model's shape, is dropped, never restored.
func (s *Server) rollbackLocked(w *watchdogState) bool {
	if w.cp == nil {
		return false
	}
	restored, stamp, _, err := s.cfg.AdmitSnapshot(bytes.NewReader(w.cp.payload))
	if err != nil || math.IsNaN(stamp) {
		w.cp = nil
		return false
	}
	st := s.live.Load()
	if st == nil || st.rep == nil || st.rep.Reseed(restored) != nil {
		w.cp = nil
		return false
	}
	return true
}
