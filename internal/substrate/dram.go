package substrate

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/attack"
	"repro/internal/memsim"
	"repro/internal/stats"
)

// DRAMDecay is the refresh-relaxed DRAM fault process: at
// construction it samples the image's weak-cell population from a
// memsim.DRAMRetention model — each weak cell gets a log-normal
// retention time and a fixed discharge value (the bit the cell reads
// once its charge leaks; true- and anti-cells discharge to opposite
// values, so a leaked cell is wrong only when the stored bit
// disagrees). Between refreshes, simulated time accrues and every weak
// cell whose retention has expired is driven to its discharge value —
// flips accumulate until the refresh boundary recharges whatever the
// cells then hold. Refresh preserves errors; only a rewrite (recovery
// substitution, checkpoint rollback) can correct a leaked cell, after
// which the cell decays again a retention time later.
type DRAMDecay struct {
	img *attack.BinaryModel

	scale     float64
	refreshMs float64

	// cells is sorted by retention time; cells[:enforced] have already
	// been driven to their discharge value this refresh epoch.
	cells    []weakCell
	ageMs    float64
	enforced int

	stats Stats
}

// weakCell is one retention-defective cell.
type weakCell struct {
	retentionMs float64
	pos         int
	discharge   bool
}

// NewDRAMDecay samples the weak-cell population and returns the
// process. Cells are sampled in runs of cfg.ClusterRun contiguous bits
// sharing one retention time, modeling wordline-correlated defects.
func NewDRAMDecay(cfg Config, img *attack.BinaryModel) (*DRAMDecay, error) {
	ret := cfg.Retention
	if len(ret.Populations) == 0 {
		ret = memsim.DefaultDRAMRetention()
	}
	scale := cfg.TimeScale
	if scale <= 0 {
		scale = 1
	}
	refresh := cfg.RefreshIntervalMs
	if refresh <= 0 {
		refresh = 1000
	}
	run := cfg.ClusterRun
	if run <= 0 {
		run = 1
	}
	n := img.Elements()
	if n == 0 {
		return nil, fmt.Errorf("substrate: empty image")
	}
	d := &DRAMDecay{
		img:       img,
		scale:     scale,
		refreshMs: refresh,
	}
	rng := stats.NewRNG(cfg.Seed ^ 0xD2A98F1C65B40E77)
	// A physical cell is weak at most once: sampling collisions are
	// dropped, not double-counted with contradictory discharge values.
	taken := make(map[int]bool)
	for _, p := range ret.Populations {
		count := int(math.Round(p.Fraction * float64(n)))
		for placed := 0; placed < count; {
			span := run
			if span > count-placed {
				span = count - placed
			}
			base := rng.IntN(n - span + 1)
			retention := math.Exp(p.MuLogMs + p.SigmaLog*rng.NormFloat64())
			for i := 0; i < span; i++ {
				if !taken[base+i] {
					taken[base+i] = true
					d.cells = append(d.cells, weakCell{
						retentionMs: retention,
						pos:         base + i,
						discharge:   rng.IntN(2) == 1,
					})
				}
			}
			placed += span
		}
	}
	sort.Slice(d.cells, func(i, j int) bool { return d.cells[i].retentionMs < d.cells[j].retentionMs })
	return d, nil
}

// Name returns "dram".
func (d *DRAMDecay) Name() string { return "dram" }

// WeakCells returns how many retention-defective cells were sampled.
func (d *DRAMDecay) WeakCells() int { return len(d.cells) }

// Advance accrues simulated time and drives every weak cell whose
// retention has expired to its discharge value, epoch by epoch across
// refresh boundaries.
func (d *DRAMDecay) Advance(elapsed time.Duration) (attack.Result, error) {
	if elapsed < 0 {
		return attack.Result{}, fmt.Errorf("substrate: negative elapsed %v", elapsed)
	}
	dt := elapsed.Seconds() * 1000 * d.scale
	d.stats.Advances++
	d.stats.SimulatedMs += dt
	var res attack.Result
	// Bound the work of a huge gap: beyond a few hundred refresh
	// epochs nothing new can happen — every expired cell already reads
	// its discharge value and refresh keeps recharging it.
	const maxEpochs = 256
	for epoch := 0; dt > 0 && epoch < maxEpochs; epoch++ {
		step := d.refreshMs - d.ageMs
		if step > dt {
			step = dt
		}
		d.ageMs += step
		dt -= step
		d.enforce(&res)
		if d.ageMs >= d.refreshMs {
			// Refresh boundary: every cell is recharged with whatever
			// it currently holds, and a fresh retention epoch begins.
			d.ageMs = 0
			d.enforced = 0
		}
	}
	d.stats.BitsFlipped += int64(res.BitsFlipped)
	return res, nil
}

// enforce discharges every not-yet-enforced cell whose retention time
// is within the current epoch age.
func (d *DRAMDecay) enforce(res *attack.Result) {
	for d.enforced < len(d.cells) && d.cells[d.enforced].retentionMs <= d.ageMs {
		c := d.cells[d.enforced]
		d.enforced++
		if d.img.BitValue(c.pos, 0) == c.discharge {
			continue // already leaked (or stored the leak value): no error
		}
		d.img.FlipBit(c.pos, 0)
		res.BitsFlipped++
		res.ElementsHit++
	}
}

// NoteWrites is a no-op: retention decay is time-driven. (A rewrite
// recharges the written cell, which the per-epoch enforcement already
// approximates: the cell is re-leaked one epoch later.)
func (d *DRAMDecay) NoteWrites(int) {}

// Refresh restarts the retention epoch after a full known-good rewrite
// (checkpoint rollback): every cell is recharged.
func (d *DRAMDecay) Refresh() {
	d.ageMs = 0
	d.enforced = 0
}

// Stats returns cumulative counters.
func (d *DRAMDecay) Stats() Stats { return d.stats }
