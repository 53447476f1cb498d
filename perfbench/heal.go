package main

import (
	"math"
	"time"

	"repro/internal/memsim"
	"repro/internal/serve"
	"repro/internal/substrate"
)

// heal_dram: one ISOLET model (617 features, k=26) with recovery on,
// mounted on clustered refresh-relaxed DRAM. Every scrub advances one
// full 1 s refresh epoch, so cells that recovery rewrote leak again.
// There is no HTTP: encode and score dominate, beside recovery writes,
// epoch publishes and the full republish on each scrub.
const (
	healBatch    = 32  // samples per PredictMany
	healSchedule = 256 // distinct batches, cycled
	// scrubEvery: each request is preceded by a scrub with chance one in
	// scrubEvery, drawn from the seed; the draws repeat every scrubCycle
	// requests.
	scrubEvery = 20
	scrubCycle = 4096
	// healMargin: served accuracy under decay may sit this far below the
	// clean accuracy of the same samples. With recovery off the chip
	// below loses more than that.
	healMargin = 0.12
)

// healChip seeds the weak-cell map. It is fixed, not drawn from the run
// seed: served accuracy depends mostly on where the weak cells fall, and
// across maps it ranges from 0.82 to 0.95, wider than any bound an
// accuracy regression could be judged by. The run seed draws the
// traffic and the scrub times instead.
const healChip = 0x6865616c5f647261

// healRetention is the weak-cell population of the heal_dram substrate.
var healRetention = memsim.DRAMRetention{Populations: []memsim.RetentionPopulation{
	{Fraction: 0.20, MuLogMs: math.Log(800), SigmaLog: 0.5},
}}

func prepareHeal(opts options) (plan, error) {
	p, err := newServerPlan(opts, "ISOLET", "heal_dram", healSchedule, healBatch)
	if err != nil {
		return nil, err
	}
	rng := rngFor(opts.seed, "heal_dram/scrubs")
	scrubs := make([]bool, scrubCycle)
	var at []int
	for i := range scrubs {
		if scrubs[i] = rng.IntN(scrubEvery) == 0; scrubs[i] {
			at = append(at, i)
		}
	}
	p.extra = [][]int{at}
	p.config = func() (serve.Config, *countingWriter) {
		return serve.Config{
			RecoverySeed:    seedFor(opts.seed, "heal_dram/recovery"),
			DisableRecovery: !opts.recover,
			Substrate: &substrate.Config{
				Kind:       "dram",
				Seed:       healChip,
				Retention:  healRetention,
				ClusterRun: 400,
			},
			ScrubTick: parked,
		}, nil
	}
	p.tick = func(srv *serve.Server, i int64, tr *tracer) error {
		if i == 0 || !scrubs[i%scrubCycle] {
			return nil
		}
		var err error
		tr.time("substrate.scrub", 0, i, 0, func() { _, err = srv.ScrubNow(time.Second) })
		return err
	}
	return p, nil
}
