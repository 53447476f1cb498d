package fleet

import (
	"bytes"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/hdc/model"
	"repro/internal/recovery"
	"repro/internal/substrate"
)

// replica is the in-process Member: an independent fork of the seed
// system (private deployed class vectors, shared immutable encoder),
// its own recoverer, and its own fault process. Divergence between
// replicas comes exactly from here — each fault process samples its
// own weak cells and victims, so the same physical campaign damages
// each copy differently, which is what quorum voting and majority
// repair exploit.
type replica struct {
	id int

	// mu is the replica's single-writer model lock, the same discipline
	// as serve.Server.mu: recovery observation, fault advances, repairs,
	// and reseeds take it exclusive; donor serialization and status take
	// it shared. Scoring, summaries and chunk reads do NOT take it —
	// they go through chain, the replica's RCU epoch publication point,
	// and every writer publishes its mutation in the same critical
	// section. mu is the innermost lock in the fleet — nothing is
	// acquired under it.
	mu    sync.RWMutex
	sys   *core.System
	rec   *recovery.Recoverer
	sub   substrate.FaultProcess
	chain *model.EpochChain

	// faultBits counts substrate flips applied by this replica's scrubber.
	faultBits atomic.Int64
}

func (r *replica) Score(qs []*bitvec.Vector, temperature float64) ([]int, []float64, error) {
	classes, confs := ScoreEpoch(r.chain, qs, temperature)
	return classes, confs, nil
}

func (r *replica) Summary(chunks int) (Summary, error) { return Summarize(r.chain, chunks), nil }

func (r *replica) Chunks(refs []ChunkRef) ([]*bitvec.Vector, error) {
	return ReadChunks(r.chain, refs), nil
}

func (r *replica) Repair(patches []Patch) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	RepairChunks(r.sys, r.sub, r.chain, patches)
	return nil
}

// Snapshot serializes the replica under its read lock only — the
// dispatcher never holds two replica locks at once.
func (r *replica) Snapshot(stamp float64) ([]byte, error) {
	var buf bytes.Buffer
	r.mu.RLock()
	defer r.mu.RUnlock()
	err := r.sys.SaveStamped(&buf, stamp)
	return buf.Bytes(), err
}

func (r *replica) Reseed(image []byte) error {
	donor, _, err := core.LoadStamped(bytes.NewReader(image))
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ReseedImage(r.sys, r.sub, r.chain, donor.Snapshot())
	return nil
}

// VerifyJournal passes: replicas keep no journal of their own (the
// fleet's journal is the dispatcher's), so they make no lineage claim.
func (r *replica) VerifyJournal() error { return nil }

// Probe never runs: an in-process replica cannot be unreachable.
func (r *replica) Probe() bool { return true }

// Describe adds fault and recovery counters. It takes the read lock to
// get coherent substrate stats (Stats races with Advance otherwise).
func (r *replica) Describe(st *ReplicaStatus) {
	st.FaultBits = r.faultBits.Load()
	r.mu.RLock()
	if r.sub != nil {
		s := r.sub.Stats()
		st.Substrate = &s
	}
	r.mu.RUnlock()
	if r.rec != nil {
		s := r.rec.Stats()
		st.Recovery = &s
	}
}

// The model-side halves of the Member operations, shared by the
// in-process replica and a cluster node's handlers (internal/serve).
// Readers go through the current epoch of chain, lock-free; writers
// run under the caller's writer lock and publish what they rewrote.

// ScoreEpoch classifies qs against chain's current epoch.
func ScoreEpoch(chain *model.EpochChain, qs []*bitvec.Vector, temperature float64) ([]int, []float64) {
	classes := make([]int, len(qs))
	confs := make([]float64, len(qs))
	ep := chain.Acquire()
	img := ep.Frozen()
	for i, q := range qs {
		classes[i], confs[i] = img.PredictWithConfidence(q, temperature)
	}
	ep.Release()
	return classes, confs
}

// Summarize digests chain's current epoch into per-class chunk hashes
// (chunks is clamped to the dimensionality).
func Summarize(chain *model.EpochChain, chunks int) Summary {
	ep := chain.Acquire()
	defer ep.Release()
	img := ep.Frozen()
	dims := img.Dimensions()
	chunks = min(chunks, dims)
	s := Summary{Classes: img.Classes(), Dims: dims, Chunks: chunks, Hashes: make([][]uint64, img.Classes())}
	for c := range s.Hashes {
		row := make([]uint64, chunks)
		cv := img.ClassVector(c)
		for k := range row {
			lo, hi := ChunkBounds(dims, chunks, k)
			row[k] = ChunkHash(cv, lo, hi)
		}
		s.Hashes[c] = row
	}
	return s
}

// ReadChunks copies the bits of each named range out of chain's
// current epoch.
func ReadChunks(chain *model.EpochChain, refs []ChunkRef) []*bitvec.Vector {
	ep := chain.Acquire()
	defer ep.Release()
	img := ep.Frozen()
	out := bitvec.NewMany(chunkLens(refs))
	for i, ref := range refs {
		img.ClassVector(ref.Class).SliceInto(out[i], ref.Lo)
	}
	return out
}

// chunkLens returns the bit length of each ref's range.
func chunkLens(refs []ChunkRef) []int {
	lens := make([]int, len(refs))
	for i, ref := range refs {
		lens[i] = ref.Hi - ref.Lo
	}
	return lens
}

// RepairChunks overwrites each patch's range of sys's class vectors,
// bills the writes to sub (nil without a substrate) exactly like
// recovery substitutions, and publishes the rewritten classes on
// chain.
func RepairChunks(sys *core.System, sub substrate.FaultProcess, chain *model.EpochChain, patches []Patch) {
	m := sys.Model()
	var dirty []int
	wrote := 0
	for _, p := range patches {
		m.ClassVector(p.Class).OverwriteSlice(p.Bits, p.Lo)
		wrote += p.Bits.Len()
		if !slices.Contains(dirty, p.Class) {
			dirty = append(dirty, p.Class)
		}
	}
	if sub != nil {
		sub.NoteWrites(wrote)
	}
	chain.Publish(m, dirty)
}

// ReseedImage re-images sys's class vectors from a donor snapshot. The
// full-image rewrite is substrate traffic: every bit is billed and the
// process refreshed (decayed cells recharge; stuck cells stay stuck —
// wear survives re-imaging, exactly like the watchdog's rollback).
// Every class is published.
func ReseedImage(sys *core.System, sub substrate.FaultProcess, chain *model.EpochChain, snap []*bitvec.Vector) {
	sys.Restore(snap)
	if sub != nil {
		sub.NoteWrites(sys.Classes() * sys.Dimensions())
		sub.Refresh()
	}
	chain.Publish(sys.Model(), nil)
}
