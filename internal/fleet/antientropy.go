package fleet

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/bitvec"
)

// SweepReport summarizes one anti-entropy sweep.
type SweepReport struct {
	// Compared is how many members took part in the vote.
	Compared int `json:"compared"`
	// DivergentBits is the total bits (across participating members)
	// that disagreed with the majority model before repair.
	DivergentBits int `json:"divergent_bits"`
	// RepairedChunks / RepairedBits count minority chunks overwritten
	// with the majority chunk.
	RepairedChunks int `json:"repaired_chunks"`
	RepairedBits   int `json:"repaired_bits"`
	// Quarantined / Reseeded name members that left rotation this
	// sweep and those re-imaged from a donor.
	Quarantined []int `json:"quarantined,omitempty"`
	Reseeded    []int `json:"reseeded,omitempty"`
	// Healthy reports whether the sweep proved the members bit-identical
	// (re-arming the fast path).
	Healthy bool `json:"healthy"`
}

// repairPlan is one divergent chunk scheduled for repair on one member.
type repairPlan struct {
	Patch
	chunk int
	bits  int // the member's disagreement with the majority
}

// SweepNow runs one anti-entropy sweep. The periodic loop calls it on
// every tick; tests and drills call it directly to drive repair
// deterministically.
//
//  1. Every Down member is probed once; RejoinProbes consecutive good
//     probes return it to rotation.
//  2. Every active member reports per-class chunk hashes (Summary).
//     Chunks whose hashes agree everywhere are bit-identical across
//     the fleet and are never fetched.
//  3. The divergent chunks are fetched from every member and
//     majority-voted (bitvec.MajorityInto on the chunk slices —
//     bitwise, so identical to slicing a full majority image). A
//     member's disagreement with the majority is its divergence.
//  4. The worst offender, if past QuarantineDivergence, leaves rotation
//     and is re-imaged from the most-agreeing donor — at most one per
//     sweep, so a quorum always stays active.
//  5. Everyone else still in rotation gets the majority chunks they
//     disagree with. Members bill the writes to their substrate, like
//     recovery substitutions: anti-entropy consumes endurance too.
//  6. Members stranded in quarantine by an earlier refused or failed
//     reseed get another attempt with this sweep's donor agreements.
//
// A sweep that found zero divergence across every member proves them
// bit-identical and re-arms the fast path. The returned error reports
// a sweep that could not run (shape mismatch between members, or
// fewer than two reachable); member failures inside a running sweep
// advance the failure ladder instead of aborting it.
func (d *Dispatcher[Q]) SweepNow() (SweepReport, error) {
	d.aeMu.Lock()
	defer d.aeMu.Unlock()
	d.sweeps.Add(1)
	d.probeDown()

	// Read after the rejoin probes, whose returnees this sweep measures,
	// and before the summaries: settle arms from this word only.
	start := d.health.Load()
	act := d.actives()
	rep := SweepReport{Compared: len(act)}
	if len(act) < 2 {
		// Nothing to vote with; a lone member is trivially "majority".
		rep.Healthy = len(act) == len(d.slots)
		d.settle(start, rep.Healthy)
		d.journalAppend(Event{Kind: EventSweep, Replica: -1, Class: -1, Chunk: -1})
		return rep, nil
	}

	sums := make([]Summary, len(act))
	ok := make([]bool, len(act))
	parallel(len(act), func(i int) {
		var err error
		sums[i], err = act[i].m.Summary(d.cfg.AntiEntropy.Chunks)
		ok[i] = d.note(act[i], err)
	})
	act, sums = keep(act, sums, ok)
	rep.Compared = len(act)
	if len(act) < 2 {
		return d.tooFew(rep, "summaries")
	}
	classes, dims, chunks := sums[0].Classes, sums[0].Dims, sums[0].Chunks
	for i, s := range sums {
		if s.Classes != classes || s.Dims != dims || s.Chunks != chunks {
			return rep, fmt.Errorf("fleet: member %d shape (%d classes, D=%d, %d chunks) != member %d (%d, %d, %d)",
				act[i].id, s.Classes, s.Dims, s.Chunks, act[0].id, classes, dims, chunks)
		}
	}

	var refs []ChunkRef
	var refChunk []int
	for c := 0; c < classes; c++ {
		for k := 0; k < chunks; k++ {
			for _, s := range sums[1:] {
				if s.Hashes[c][k] != sums[0].Hashes[c][k] {
					lo, hi := ChunkBounds(dims, chunks, k)
					refs = append(refs, ChunkRef{Class: c, Lo: lo, Hi: hi})
					refChunk = append(refChunk, k)
					break
				}
			}
		}
	}

	plans := make([][]repairPlan, len(d.slots)) // member id -> its divergent chunks
	if len(refs) > 0 {
		bits := make([][]*bitvec.Vector, len(act)) // member -> ref -> bits
		ok = make([]bool, len(act))
		parallel(len(act), func(i int) {
			var err error
			bits[i], err = act[i].m.Chunks(refs)
			ok[i] = d.note(act[i], err)
		})
		act, bits = keep(act, bits, ok)
		rep.Compared = len(act)
		if len(act) < 2 {
			return d.tooFew(rep, "chunk fetches")
		}
		voters := make([]*bitvec.Vector, len(act))
		majs := bitvec.NewMany(chunkLens(refs))
		for j, ref := range refs {
			maj := majs[j]
			for i := range act {
				voters[i] = bits[i][j]
			}
			bitvec.MajorityInto(maj, voters)
			for i, s := range act {
				if h := bits[i][j].Hamming(maj); h > 0 {
					rep.DivergentBits += h
					plans[s.id] = append(plans[s.id], repairPlan{Patch{ref.Class, ref.Lo, maj}, refChunk[j], h})
				}
			}
		}
	}

	totalBits := classes * dims
	var worst *slot[Q]
	worstFrac := 0.0
	for _, s := range act {
		n := 0
		for _, p := range plans[s.id] {
			n += p.bits
		}
		frac := float64(n) / float64(totalBits)
		s.setDivergence(frac)
		if frac > worstFrac {
			worst, worstFrac = s, frac
		}
	}
	// Quarantine is a repair pipeline stage, not a terminal state: a
	// member too far gone to patch from a vote it pollutes is re-imaged
	// whole and returns to rotation at once.
	if worst != nil && worstFrac > d.cfg.AntiEntropy.QuarantineDivergence {
		d.quarantine(worst, worstFrac, act, totalBits, &rep)
		plans[worst.id] = nil
	}

	// A failed push just leaves divergence for the next sweep; the fast
	// path stays down either way because this sweep measured it.
	for _, s := range act {
		plan := plans[s.id]
		if len(plan) == 0 {
			continue
		}
		patches := make([]Patch, len(plan))
		for i, p := range plan {
			patches[i] = p.Patch
		}
		if !d.note(s, s.m.Repair(patches)) {
			continue
		}
		for _, p := range plan {
			n := p.Bits.Len()
			rep.RepairedChunks++
			rep.RepairedBits += n
			s.repairedBits.Add(int64(n))
			d.journalAppend(Event{Kind: EventRepair, Replica: s.id, Class: p.Class, Chunk: p.chunk, Bits: p.bits})
		}
	}
	d.repairs.Add(int64(rep.RepairedChunks))
	d.repairBits.Add(int64(rep.RepairedBits))

	for _, s := range d.slots {
		if s.state.Load() == stateQuarantined && !slices.Contains(rep.Quarantined, s.id) && d.reseed(s, act, totalBits) {
			rep.Reseeded = append(rep.Reseeded, s.id)
		}
	}

	// Repairs and reseeds happened after the summaries, so identity is
	// proven only by the next clean sweep.
	rep.Healthy = rep.DivergentBits == 0 && len(rep.Quarantined) == 0 && len(act) == len(d.slots)
	d.settle(start, rep.Healthy)
	d.journalAppend(Event{Kind: EventSweep, Replica: -1, Class: -1, Chunk: -1, Bits: rep.DivergentBits,
		Detail: fmt.Sprintf("repaired %d chunks", rep.RepairedChunks)})
	return rep, nil
}

// keep drops the members whose fetch failed, keeping got index-aligned.
func keep[Q, T any](act []*slot[Q], got []T, ok []bool) ([]*slot[Q], []T) {
	n := 0
	for i := range act {
		if ok[i] {
			act[n], got[n] = act[i], got[i]
			n++
		}
	}
	return act[:n], got[:n]
}

// tooFew ends a sweep that lost its quorum of reachable members.
func (d *Dispatcher[Q]) tooFew(rep SweepReport, what string) (SweepReport, error) {
	d.disarm()
	d.journalAppend(Event{Kind: EventSweep, Replica: -1, Class: -1, Chunk: -1, Detail: "too few reachable members"})
	return rep, fmt.Errorf("%w: %d %s reachable, need 2", ErrNoReplicas, rep.Compared, what)
}

// probeDown probes every Down member once. One probe per sweep means a
// flapping member — up for one probe, gone for the next — never builds
// a streak and never thrashes the rotation.
func (d *Dispatcher[Q]) probeDown() {
	for _, s := range d.slots {
		if s.state.Load() != stateDown {
			continue
		}
		if !s.m.Probe() {
			s.rejoinOKs = 0
			continue
		}
		if s.rejoinOKs++; s.rejoinOKs < d.ladder.RejoinProbes {
			continue
		}
		s.rejoinOKs = 0
		s.consecFails.Store(0)
		s.state.Store(stateActive)
		s.rejoins.Add(1)
		// The returnee's model is whatever it restarted with; this sweep
		// measures it and repairs or quarantines as needed.
		d.disarm()
		d.journalAppend(Event{Kind: EventActivate, Replica: s.id, Class: -1, Chunk: -1, Detail: "rejoined after probes"})
	}
}

// quarantine pulls one member from rotation and tries to re-image it.
func (d *Dispatcher[Q]) quarantine(s *slot[Q], frac float64, act []*slot[Q], bits int, rep *SweepReport) {
	s.state.Store(stateQuarantined)
	s.quarantines.Add(1)
	d.quarantines.Add(1)
	d.disarm()
	rep.Quarantined = append(rep.Quarantined, s.id)
	d.journalAppend(Event{Kind: EventQuarantine, Replica: s.id, Class: -1, Chunk: -1,
		Detail: fmt.Sprintf("divergence %.4f", frac)})
	if d.reseed(s, act, bits) {
		rep.Reseeded = append(rep.Reseeded, s.id)
	}
}

// reseed re-images quarantined member s from the most-agreeing active
// donor and returns it to rotation, reporting success. The donor's
// image is stamped with its agreement with the majority (1 -
// divergence) from this very sweep; a donor below MinReseedAgreement,
// or one whose own journal does not verify, is refused — re-imaging
// from a suspect donor would launder its corruption (or its forged
// healing history) into a "fresh" member. The image travels in the
// CRC-sealed stamped snapshot format and is verified before use.
func (d *Dispatcher[Q]) reseed(s *slot[Q], act []*slot[Q], bits int) bool {
	var donor *slot[Q]
	agree := -1.0
	for _, c := range act {
		if a := 1 - c.getDivergence(); c != s && a > agree {
			donor, agree = c, a
		}
	}
	if donor == nil || agree < d.cfg.AntiEntropy.MinReseedAgreement {
		return false
	}
	if err := donor.m.VerifyJournal(); errors.Is(err, ErrUnverified) {
		d.journalAppend(Event{Kind: EventReseed, Replica: s.id, Class: -1, Chunk: -1,
			Detail: fmt.Sprintf("refused donor %d: %v", donor.id, err)})
		return false
	} else if !d.note(donor, err) {
		return false
	}
	img, err := donor.m.Snapshot(agree)
	if !d.note(donor, err) || !d.note(s, s.m.Reseed(img)) {
		return false
	}
	s.reseeds.Add(1)
	d.reseeds.Add(1)
	d.journalAppend(Event{Kind: EventReseed, Replica: s.id, Class: -1, Chunk: -1,
		Bits: bits, Detail: fmt.Sprintf("donor %d agreement %.4f", donor.id, agree)})
	s.state.Store(stateActive)
	d.journalAppend(Event{Kind: EventActivate, Replica: s.id, Class: -1, Chunk: -1})
	return true
}
