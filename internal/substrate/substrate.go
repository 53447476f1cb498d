// Package substrate mounts a deployed model memory image on a
// continuously faulting simulated hardware substrate. Where the attack
// package injects one-shot drills, a FaultProcess is the *live* fault
// source the paper's runtime recovery actually races: refresh-relaxed
// DRAM whose weak cells discharge between refreshes (Figure 4b's
// setting, backed by memsim.DRAMRetention), endurance-limited NVM
// whose cells stick at their last value once recovery writes wear them
// out (Figure 4a, backed by memsim.EnduranceModel), and a sustained
// adversarial campaign (attack.Random on a wall-clock cadence).
//
// Every process faults the one image a deployment exposes: its binary
// rows (dense class hypervectors or LogHD planes), one bit per
// element, read and flipped through *attack.BinaryModel.
//
// Concurrency: a FaultProcess mutates the deployed rows through the
// same attack.BinaryModel the drills use, so every call — Advance,
// NoteWrites, Refresh, Stats — must be serialized with model reads and
// writes by the caller. The serve package's single-writer lock is the
// reference pattern: the scrubber advances the process under the
// exclusive lock, exactly like an attack drill.
package substrate

import (
	"fmt"
	"time"

	"repro/internal/attack"
	"repro/internal/memsim"
	"repro/internal/stats"
)

// FaultProcess is an ongoing source of bit faults over a deployed
// memory image. Time-driven processes (DRAM decay) accrue faults in
// Advance; access-driven processes (endurance wear) accrue latent
// damage in NoteWrites that manifests on the next Advance.
type FaultProcess interface {
	// Name identifies the process kind in metrics and logs.
	Name() string
	// Advance applies the faults accrued over the elapsed wall-clock
	// interval to the image and reports what was flipped.
	Advance(elapsed time.Duration) (attack.Result, error)
	// NoteWrites charges n memory writes to the substrate (recovery
	// substitutions, checkpoint rollbacks). Only wear-driven processes
	// accumulate them; the rest ignore the charge.
	NoteWrites(n int)
	// Refresh models a full known-good rewrite of the image (a
	// checkpoint rollback): decayed cells are recharged and start a
	// fresh retention epoch. Stuck cells stay stuck — wear is physics,
	// not state.
	Refresh()
	// Stats returns cumulative process counters.
	Stats() Stats
}

// Stats accumulates fault-process activity.
type Stats struct {
	// Advances is how many scrub ticks ran.
	Advances int64 `json:"advances"`
	// BitsFlipped is the cumulative number of bits the process flipped
	// in the deployed image.
	BitsFlipped int64 `json:"bits_flipped"`
	// WritesCharged is the cumulative write traffic charged through
	// NoteWrites.
	WritesCharged int64 `json:"writes_charged"`
	// FailedCells is the current number of worn-out (stuck) cells;
	// zero for processes without wear.
	FailedCells int64 `json:"failed_cells"`
	// SimulatedMs is the simulated substrate time that has elapsed.
	SimulatedMs float64 `json:"simulated_ms"`
}

// Config selects and parameterizes a fault process. The zero value of
// every field picks a sensible default for its Kind.
type Config struct {
	// Kind is "dram", "endurance", or "adversarial".
	Kind string
	// Seed drives weak-cell sampling and victim selection.
	Seed uint64

	// Retention is the DRAM weak-cell population model ("dram"; zero
	// value selects memsim.DefaultDRAMRetention).
	Retention memsim.DRAMRetention
	// TimeScale converts wall-clock milliseconds into simulated
	// substrate milliseconds ("dram"; default 1). Raising it compresses
	// hours of refresh-relaxed operation into a short drill.
	TimeScale float64
	// RefreshIntervalMs is the simulated refresh period ("dram";
	// default 1000 — refresh-relaxed far beyond the conventional 64ms,
	// the regime the paper's Figure 4b evaluates). Refresh recharges
	// whatever each cell currently holds; it never corrects errors.
	RefreshIntervalMs float64
	// ClusterRun makes retention defects row-correlated: weak cells are
	// sampled as contiguous runs of this many bits ("dram"; default 1 =
	// independent cells). Physical retention failures cluster along
	// wordlines, and clustered damage is what chunk-level fault
	// detection is most sensitive to.
	ClusterRun int

	// Endurance is the NVM wear-out model ("endurance"; zero value
	// selects memsim.DefaultEndurance). Tests and drills lower
	// NominalWrites to reach wear-out quickly.
	Endurance memsim.EnduranceModel

	// RatePerStep is the per-step flip rate of a sustained attack
	// campaign ("adversarial"; default 0.001).
	RatePerStep float64
	// StepEvery is the wall-clock period between campaign steps
	// ("adversarial"; default 1s).
	StepEvery time.Duration
}

// New builds the configured fault process over the image.
func New(cfg Config, img *attack.BinaryModel) (FaultProcess, error) {
	// The zero-value-means-default convention fills defaults with
	// `v <= 0` tests, which NaN sails past; reject non-finite knobs up
	// front so every kind shares the same rule.
	for _, knob := range []struct {
		name string
		v    float64
	}{
		{"substrate: time scale", cfg.TimeScale},
		{"substrate: refresh interval ms", cfg.RefreshIntervalMs},
		{"substrate: rate per step", cfg.RatePerStep},
	} {
		if err := stats.CheckFinite(knob.name, knob.v); err != nil {
			return nil, err
		}
	}
	if cfg.RatePerStep != 0 {
		if err := stats.CheckInterval("substrate: rate per step", cfg.RatePerStep, "(0,1]"); err != nil {
			return nil, err
		}
	}
	switch cfg.Kind {
	case "dram":
		return NewDRAMDecay(cfg, img)
	case "endurance":
		return NewEnduranceWear(cfg, img)
	case "adversarial":
		return NewAdversarialCampaign(cfg, img), nil
	default:
		return nil, fmt.Errorf("substrate: unknown kind %q (want dram, endurance, or adversarial)", cfg.Kind)
	}
}
