package main

import (
	"math"
	"time"

	"repro/internal/fleet"
	"repro/internal/memsim"
	"repro/internal/serve"
	"repro/internal/substrate"
)

// fleet_sweep: a 3-replica fleet (quorum 2) on UCIHAR (561 features,
// k=12), each replica on its own DRAM substrate, journaling to a sink
// the benchmark owns. Replica faults and anti-entropy sweeps are
// scheduled by request index, so quorum fan-out, escalated votes,
// chunk repair and journal hashing sit on the served path.
const (
	fleetBatch    = 16  // samples per PredictMany
	fleetSchedule = 256 // distinct batches, cycled
	fleetReplicas = 3
	fleetQuorum   = 2
	advanceEvery  = 10 // requests between replica faults, rotating replicas
	sweepEvery    = 30 // requests between anti-entropy sweeps
	fleetMargin   = 0.05
)

// fleetRetention is the weak-cell population of each replica's
// substrate: mild enough that a replica's divergence stays under the
// quarantine threshold, so sweeps repair chunks.
var fleetRetention = memsim.DRAMRetention{Populations: []memsim.RetentionPopulation{
	{Fraction: 0.06, MuLogMs: math.Log(800), SigmaLog: 0.5},
}}

func prepareFleet(opts options) (plan, error) {
	p, err := newServerPlan(opts, "UCIHAR", "fleet_sweep", fleetSchedule, fleetBatch)
	if err != nil {
		return nil, err
	}
	p.config = func() (serve.Config, *countingWriter) {
		sink := &countingWriter{}
		return serve.Config{
			RecoverySeed:    seedFor(opts.seed, "fleet_sweep/recovery"),
			DisableRecovery: !opts.recover,
			Substrate: &substrate.Config{
				Kind:       "dram",
				Retention:  fleetRetention,
				ClusterRun: 400,
			},
			ScrubTick: parked,
			Journal:   fleet.NewJournal(sink),
			Fleet: &fleet.Config{
				Replicas: fleetReplicas,
				Quorum:   fleetQuorum,
				Seed:     seedFor(opts.seed, "fleet_sweep/fleet"),
			},
		}, sink
	}
	p.tick = func(srv *serve.Server, i int64, tr *tracer) error {
		flt := srv.Fleet()
		var err error
		if every(i, advanceEvery) {
			r := int(i/advanceEvery) % fleetReplicas
			tr.time("fleet.advance", 0, i, 0, func() { _, err = flt.AdvanceReplica(r, time.Second) })
		}
		if every(i, sweepEvery) {
			tr.time("fleet.sweep", 0, i, 0, func() { flt.SweepNow() })
		}
		return err
	}
	return p, nil
}
