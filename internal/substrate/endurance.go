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

// EnduranceWear is the NVM wear-out fault process: every cell of the
// image gets a log-normally distributed write endurance sampled from a
// memsim.EnduranceModel at construction. Write traffic charged through
// NoteWrites — the recovery loop's substitution writes, checkpoint
// rollbacks — is wear-leveled across the array; once a cell's leveled
// write count crosses its endurance, the cell sticks at the value it
// held at failure. Advance re-asserts every stuck cell, so a recovery
// write into a worn cell silently fails on the next scrub tick —
// exactly the late-lifetime regime of the paper's Figure 4a, where
// recovery itself consumes the array's remaining endurance.
type EnduranceWear struct {
	img   *attack.BinaryModel
	model memsim.EnduranceModel

	// cells is sorted ascending by endurance; cells[:failed] are stuck.
	cells         []wearCell
	failed        int
	totalBits     int
	perCellWrites float64

	stats Stats
}

// wearCell is one cell's sampled endurance and, once failed, its
// latched value.
type wearCell struct {
	endurance float64
	pos       int
	stuck     bool
}

// NewEnduranceWear samples per-cell endurance for the whole image.
func NewEnduranceWear(cfg Config, img *attack.BinaryModel) (*EnduranceWear, error) {
	em := cfg.Endurance
	if em.NominalWrites <= 0 {
		em = memsim.DefaultEndurance()
	}
	if em.SigmaLog <= 0 {
		em.SigmaLog = memsim.DefaultEndurance().SigmaLog
	}
	n := img.Elements()
	if n == 0 {
		return nil, fmt.Errorf("substrate: empty image")
	}
	e := &EnduranceWear{
		img:       img,
		model:     em,
		totalBits: n,
		cells:     make([]wearCell, n),
	}
	rng := stats.NewRNG(cfg.Seed ^ 0x7F4A7C15E4D3B281)
	logNominal := math.Log(em.NominalWrites)
	for i := range e.cells {
		e.cells[i] = wearCell{
			pos:       i,
			endurance: math.Exp(logNominal + em.SigmaLog*rng.NormFloat64()),
		}
	}
	sort.Slice(e.cells, func(i, j int) bool { return e.cells[i].endurance < e.cells[j].endurance })
	return e, nil
}

// Name returns "endurance".
func (e *EnduranceWear) Name() string { return "endurance" }

// FailedCells returns how many cells have worn out so far.
func (e *EnduranceWear) FailedCells() int { return e.failed }

// PerCellWrites returns the current wear-leveled write count.
func (e *EnduranceWear) PerCellWrites() float64 { return e.perCellWrites }

// NoteWrites charges n writes, wear-leveled across the array.
func (e *EnduranceWear) NoteWrites(n int) {
	if n <= 0 {
		return
	}
	e.stats.WritesCharged += int64(n)
	e.perCellWrites += float64(n) / float64(e.totalBits)
}

// Advance fails every cell whose endurance the leveled write count has
// crossed (latching its current value) and re-asserts all stuck cells,
// flipping back any that a recovery write changed since the last tick.
func (e *EnduranceWear) Advance(elapsed time.Duration) (attack.Result, error) {
	if elapsed < 0 {
		return attack.Result{}, fmt.Errorf("substrate: negative elapsed %v", elapsed)
	}
	e.stats.Advances++
	e.stats.SimulatedMs += elapsed.Seconds() * 1000
	var res attack.Result
	// Newly worn-out cells latch whatever they hold right now: wear
	// faults manifest on the next write, not at the failure instant.
	for e.failed < len(e.cells) && e.cells[e.failed].endurance <= e.perCellWrites {
		c := &e.cells[e.failed]
		e.failed++
		c.stuck = e.img.BitValue(c.pos, 0)
	}
	e.stats.FailedCells = int64(e.failed)
	// Re-assert stuck values: writes into worn cells do not take.
	for i := 0; i < e.failed; i++ {
		c := &e.cells[i]
		if e.img.BitValue(c.pos, 0) != c.stuck {
			e.img.FlipBit(c.pos, 0)
			res.BitsFlipped++
			res.ElementsHit++
		}
	}
	e.stats.BitsFlipped += int64(res.BitsFlipped)
	return res, nil
}

// Refresh is a no-op: wear is physical. A rollback rewrites the image,
// but writes into stuck cells still do not take (the next Advance
// re-asserts them), and the rewrite itself must be charged as write
// traffic by the caller via NoteWrites.
func (e *EnduranceWear) Refresh() {}

// Stats returns cumulative counters.
func (e *EnduranceWear) Stats() Stats { return e.stats }
