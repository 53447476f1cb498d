package substrate

import (
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/attack"
	"repro/internal/stats"
)

// AdversarialCampaign is a sustained bit-flip campaign: attack.Random
// stepped on a fixed wall-clock cadence, so an attacker with
// continuous access injects RatePerStep of the image every StepEvery —
// the threat model of Yang & Ren's adversarial HDC attacks, run
// against the live server instead of a batch script. On a binary image
// a targeted campaign would flip exactly the same bits: every element
// is one bit, and that bit is its worst-case one.
type AdversarialCampaign struct {
	img       *attack.BinaryModel
	rate      float64
	rng       *rand.Rand
	stepEvery time.Duration
	carry     time.Duration
	steps     int
	stats     Stats
}

// NewAdversarialCampaign builds a campaign over the image. New
// validates the rate; a rate outside [0, 1] given here directly fails
// on the first step.
func NewAdversarialCampaign(cfg Config, img *attack.BinaryModel) *AdversarialCampaign {
	rate := cfg.RatePerStep
	if rate <= 0 {
		rate = 0.001
	}
	every := cfg.StepEvery
	if every <= 0 {
		every = time.Second
	}
	return &AdversarialCampaign{
		img:       img,
		rate:      rate,
		rng:       stats.NewRNG(cfg.Seed ^ 0x9E6C63D0876A9A99),
		stepEvery: every,
	}
}

// Name returns "adversarial".
func (a *AdversarialCampaign) Name() string { return "adversarial" }

// Steps returns how many campaign steps have fired.
func (a *AdversarialCampaign) Steps() int { return a.steps }

// Advance fires one campaign step per StepEvery of accumulated wall
// time (fractional remainders carry over to the next tick).
func (a *AdversarialCampaign) Advance(elapsed time.Duration) (attack.Result, error) {
	if elapsed < 0 {
		return attack.Result{}, fmt.Errorf("substrate: negative elapsed %v", elapsed)
	}
	a.stats.Advances++
	a.stats.SimulatedMs += elapsed.Seconds() * 1000
	a.carry += elapsed
	var res attack.Result
	// Bound a huge gap: a long stall fires at most maxSteps rounds.
	const maxSteps = 64
	for steps := 0; a.carry >= a.stepEvery && steps < maxSteps; steps++ {
		a.carry -= a.stepEvery
		r, err := attack.Random(a.img, a.rate, a.rng)
		if err != nil {
			return res, err
		}
		a.steps++
		res.BitsFlipped += r.BitsFlipped
		res.ElementsHit += r.ElementsHit
	}
	if a.carry > a.stepEvery {
		a.carry = a.stepEvery // drop the unfired backlog
	}
	a.stats.BitsFlipped += int64(res.BitsFlipped)
	return res, nil
}

// NoteWrites is a no-op: the campaign does not model wear.
func (a *AdversarialCampaign) NoteWrites(int) {}

// Refresh is a no-op: a rollback does not stop an attacker.
func (a *AdversarialCampaign) Refresh() {}

// Stats returns cumulative counters.
func (a *AdversarialCampaign) Stats() Stats { return a.stats }
