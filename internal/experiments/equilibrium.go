package experiments

import (
	"fmt"
	"time"

	"repro/internal/dataset"
	"repro/internal/recovery"
	"repro/internal/stats"
	"repro/internal/substrate"
)

// EquilibriumRates is the fault-flux axis of the steady-state study:
// the fraction of the deployed image a sustained targeted campaign
// flips per window (substrate.Config.RatePerStep).
var EquilibriumRates = []float64{0.05, 0.10, 0.20, 0.35}

// EquilibriumThroughputs is the recovery-throughput axis: unlabeled
// queries the recovery loop observes per window (0 = recovery off,
// the unprotected baseline).
var EquilibriumThroughputs = []int{0, 100, 400}

// EquilibriumCell is one (fault rate, recovery throughput) steady
// state.
type EquilibriumCell struct {
	QueriesPerWindow int
	// Floor is the equilibrium accuracy: the mean over the final
	// windows, once fault inflow and healing have balanced.
	Floor float64
	// HealedPerWindow is the mean bits substituted per window.
	HealedPerWindow float64
}

// EquilibriumRow is one fault rate's sweep over recovery throughputs.
type EquilibriumRow struct {
	RatePerWindow float64
	// FluxPerWindow is the mean bits the campaign flipped per window
	// on the unprotected baseline.
	FluxPerWindow float64
	Cells         []EquilibriumCell
}

// EquilibriumResult carries the steady-state equilibrium table.
type EquilibriumResult struct {
	Dataset string
	Clean   float64
	Windows int
	Rows    []EquilibriumRow
	// KneeRate[q] is the first campaign rate at which the equilibrium
	// floor under throughput q falls more than two points below clean
	// (-1 when the floor holds across the whole sweep).
	KneeRate map[int]float64
}

// Equilibrium measures the steady-state three-way tradeoff the serve
// package's control loop lives on: a sustained targeted bit-flip
// campaign injects a fixed fraction of the deployed image per window
// while the recovery loop heals from a fixed budget of unlabeled
// queries per window. After a few windows the two flows balance and
// accuracy settles at an equilibrium floor; sweeping campaign rate
// against recovery throughput maps where the floor holds near clean
// and where healing capacity is outrun — the knee the watchdog's
// escalate-then-rollback ladder exists for.
func Equilibrium(ctx *Context) (*EquilibriumResult, error) {
	spec := dataset.PAMAP()
	t, err := ctx.HDC(spec)
	if err != nil {
		return nil, err
	}
	clean := t.CleanHDCAccuracy()

	const windows = 10
	const settle = 3 // floor = mean accuracy of the last `settle` windows
	res := &EquilibriumResult{
		Dataset:  spec.Name,
		Clean:    clean,
		Windows:  windows,
		KneeRate: map[int]float64{},
	}
	for _, q := range EquilibriumThroughputs {
		res.KneeRate[q] = -1
	}

	// The whole rates×throughputs×trials grid fans out at once: each
	// trial runs its campaign-vs-recovery tug of war on a private fork,
	// so cells no longer serialize on restore cycles.
	type eqUnit struct{ floor, healed, flux float64 }
	nq := len(EquilibriumThroughputs)
	grid := runGrid(ctx, len(EquilibriumRates)*nq, ctx.Opts.Trials, func(ci, trial int) eqUnit {
		ri, qi := ci/nq, ci%nq
		rate, q := EquilibriumRates[ri], EquilibriumThroughputs[qi]
		sys := t.System.Fork()
		// A fresh campaign per trial, seeded per rate so every
		// throughput defends against the same attacker.
		proc, err := substrate.New(substrate.Config{
			Kind:        "adversarial",
			Seed:        ctx.trialSeed("equilibrium", ri, trial),
			RatePerStep: rate,
			StepEvery:   time.Second,
		}, sys.AttackImage())
		if err != nil {
			panic(err)
		}
		var rec *recovery.Recoverer
		if q > 0 {
			cfg := ctx.Opts.Recovery
			cfg.EnsembleWindow = 16
			seed := ctx.trialSeed("equilibrium-rec", ri*nq+qi, trial)
			if rec, err = sys.NewRecoverer(cfg, seed); err != nil {
				panic(err)
			}
		}

		flux, healed := 0.0, 0.0
		accs := make([]float64, 0, windows)
		for w := 0; w < windows; w++ {
			r, err := proc.Advance(time.Second)
			if err != nil {
				panic(err)
			}
			flux += float64(r.BitsFlipped)
			if rec != nil {
				before := rec.Stats().BitsSubstituted
				lo := (w * q) % len(t.TestEnc)
				for i := 0; i < q; i++ {
					rec.Observe(t.TestEnc[(lo+i)%len(t.TestEnc)])
				}
				healed += float64(rec.Stats().BitsSubstituted - before)
			}
			accs = append(accs, sys.Model().AccuracyParallel(t.TestEnc, t.Data.TestY, 0))
		}
		return eqUnit{
			floor:  stats.Mean(accs[len(accs)-settle:]),
			healed: healed / windows,
			flux:   flux / windows,
		}
	})

	for ri, rate := range EquilibriumRates {
		row := EquilibriumRow{RatePerWindow: rate}
		for qi, q := range EquilibriumThroughputs {
			var floorSum, healSum, fluxSum float64
			for _, u := range grid[ri*nq+qi] {
				floorSum += u.floor
				healSum += u.healed
				fluxSum += u.flux
			}
			trials := float64(ctx.Opts.Trials)
			cell := EquilibriumCell{
				QueriesPerWindow: q,
				Floor:            floorSum / trials,
				HealedPerWindow:  healSum / trials,
			}
			row.Cells = append(row.Cells, cell)
			if q == 0 {
				row.FluxPerWindow = fluxSum / trials
			}
			if res.KneeRate[q] < 0 && stats.QualityLoss(clean, cell.Floor) > 2.0 {
				res.KneeRate[q] = rate
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render formats the equilibrium table.
func (r *EquilibriumResult) Render() string {
	header := []string{"rate/win", "flux b/win"}
	for _, q := range EquilibriumThroughputs {
		if q == 0 {
			header = append(header, "floor q=0")
		} else {
			header = append(header, fmt.Sprintf("floor q=%d", q), fmt.Sprintf("healed q=%d", q))
		}
	}
	tab := stats.NewTable(
		fmt.Sprintf("Steady-state equilibrium on %s (clean %.3f, %d windows of sustained targeted campaign)",
			r.Dataset, r.Clean, r.Windows),
		header...)
	for _, row := range r.Rows {
		cells := []string{stats.Pct(row.RatePerWindow), fmt.Sprintf("%.0f", row.FluxPerWindow)}
		for _, c := range row.Cells {
			cells = append(cells, fmt.Sprintf("%.3f", c.Floor))
			if c.QueriesPerWindow > 0 {
				cells = append(cells, fmt.Sprintf("%.0f", c.HealedPerWindow))
			}
		}
		tab.AddRow(cells...)
	}
	out := tab.Render()
	for _, q := range EquilibriumThroughputs {
		knee := r.KneeRate[q]
		label := fmt.Sprintf("q=%d", q)
		if knee < 0 {
			out += fmt.Sprintf("knee %s: none within the sweep (floor holds within 2 points of clean)\n", label)
		} else {
			out += fmt.Sprintf("knee %s: floor falls >2 points below clean at %s per window\n", label, stats.Pct(knee))
		}
	}
	return out
}
