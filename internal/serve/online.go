package serve

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/fleet"
)

// ErrSuperseded reports that a /train or /restore replaced the live
// system while an online retrain was in flight; the retrain's pending
// deltas were discarded rather than applied to the wrong model.
var ErrSuperseded = errors.New("serve: model replaced during online retrain")

// RetrainOnline refines the live system in place with mistake-driven
// epochs over labeled samples, without stalling inference. The heavy
// work runs entirely outside the model lock:
//
//  1. Encode every sample lock-free (the encoder is immutable).
//  2. Per epoch, copy the deployed class vectors out of the current
//     model epoch — lock-free, and exactly the deployed model as of the
//     last write, since every writer publishes in its critical section
//     — then run the map phase (model.AccumulateRetrain) against that
//     copy with no lock held at all, so the pass never races concurrent
//     writers (recovery, scrub, drills) on deployed memory.
//  3. Apply the merge + binarize swap (model.ApplyRetrain) as a replica
//     write, guarded by the install-swap lock against the system having
//     been swapped out underneath (ErrSuperseded; deltas are
//     discarded).
//
// ApplyRetrain re-derives the deployed vectors from the training
// counters, which overwrites any bits the recovery loop substituted
// directly into deployed memory. That is intended: the counters are
// the authoritative training state, and a binarize from healthy
// counters is itself a full repair of the deployed image.
//
// Concurrent RetrainOnline calls are serialized; epochs from two
// interleaved retrains would otherwise double-apply mistake deltas
// computed against the same snapshot. It returns the final epoch's
// mistake count, exactly as Model.Retrain would. Fleet mode refuses:
// its replicas are forks of a seed no retrain reaches.
func (s *Server) RetrainOnline(xs [][]float64, ys []int, epochs int) (int, error) {
	if s.closed.Load() {
		return 0, ErrClosed
	}
	st := s.live.Load()
	if st == nil {
		return 0, ErrNoModel
	}
	if st.rep == nil {
		return 0, fmt.Errorf("%w: online retrain refines a single model, not a replica fleet", ErrBadInput)
	}
	sys, rep := st.sys, st.rep
	if len(xs) == 0 || len(xs) != len(ys) {
		return 0, fmt.Errorf("%w: %d samples but %d labels", ErrBadInput, len(xs), len(ys))
	}
	want := sys.Features()
	for i, x := range xs {
		if len(x) != want {
			return 0, fmt.Errorf("%w: sample %d has %d features, want %d", ErrBadInput, i, len(x), want)
		}
	}
	if epochs <= 0 {
		epochs = 1
	}

	s.trainMu.Lock()
	defer s.trainMu.Unlock()

	m := sys.Model()
	if m == nil {
		// Compressed backends carry no training counters to accumulate
		// into; retrain the dense source and re-compress instead.
		return 0, fmt.Errorf("%w: online retrain requires the dense backend, got %q", ErrBadInput, sys.Backend())
	}
	live := func() bool {
		cur := s.live.Load()
		return cur != nil && cur.rep == rep
	}
	encoded := sys.EncodeAllParallel(xs, s.cfg.EncodeWorkers)
	classes := make([]fleet.ChunkRef, sys.Classes())
	for c := range classes {
		classes[c] = fleet.ChunkRef{Class: c, Hi: sys.Dimensions()}
	}
	mistakes := 0
	for e := 0; e < epochs; e++ {
		if !live() {
			return mistakes, ErrSuperseded
		}
		dep, _ := rep.Chunks(classes)

		rd, err := m.AccumulateRetrain(dep, encoded, ys, s.cfg.EncodeWorkers)
		if err != nil {
			return mistakes, fmt.Errorf("%w: %v", ErrBadInput, err)
		}

		s.mu.Lock()
		if !live() {
			s.mu.Unlock()
			m.DiscardRetrain(rd)
			return mistakes, ErrSuperseded
		}
		// ApplyRetrain re-binarizes every class: Mutate's full reimage.
		_ = rep.Mutate(func(*core.System) error {
			m.ApplyRetrain(rd)
			return nil
		})
		s.mu.Unlock()

		mistakes = rd.Mistakes
		if mistakes == 0 {
			break
		}
	}
	return mistakes, nil
}
