package fleet

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/attack"
	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/hdc/model"
	"repro/internal/recovery"
	"repro/internal/substrate"
)

// Replica is one deployed model and its single writer: the system's
// class memory, the recoverer that substitutes trusted queries into
// it, the fault process that corrupts it, and the epoch chain readers
// score through. The single-model server, a cluster node and every
// in-process fleet member are each one Replica, so the paper's
// recovery loop, substrate scrubbing, attack drills, chunk repair,
// re-seeding and rollback are implemented once, here.
//
// Readers (Score, Summary, Chunks, Acquire) take no lock: they go
// through the current epoch of chain. Every writer runs under mu,
// bills its writes to the fault process, and publishes what it
// rewrote as a new epoch in the same critical section. mu is the
// innermost lock wherever a Replica is used — nothing is acquired
// under it, so callers keep their own bookkeeping (fast-path disarms,
// journal lines, metrics) outside it.
type Replica struct {
	mu    sync.RWMutex
	sys   *core.System
	rec   *recovery.Recoverer
	sub   substrate.FaultProcess
	chain *model.EpochChain

	// subStats is the latest fault-process counter snapshot, republished
	// under mu by every writer that touched sub, so status and metrics
	// read it without the lock (substrate.Stats itself is not
	// thread-safe).
	subStats atomic.Pointer[substrate.Stats]
	// faultBits counts bits the fault process flipped; recoveryWrites
	// counts recovery substitutions billed to it.
	faultBits      atomic.Int64
	recoveryWrites atomic.Int64
}

// NewReplica deploys sys: a fresh epoch chain over its backend, a
// recoverer when rc is non-nil and the backend is dense (compressed
// backends have no per-class vectors to substitute into), and a fault
// process over its attack image when sc is non-nil.
func NewReplica(sys *core.System, rc *recovery.Config, recoverySeed uint64, sc *substrate.Config) (*Replica, error) {
	r := &Replica{sys: sys, chain: model.NewEpochChain(sys.Freezer())}
	if rc != nil && sys.Backend() == "dense" {
		rec, err := sys.NewRecoverer(*rc, recoverySeed)
		if err != nil {
			return nil, err
		}
		r.rec = rec
	}
	if sc != nil {
		p, err := substrate.New(*sc, sys.AttackImage())
		if err != nil {
			return nil, err
		}
		r.sub = p
		r.publishStats()
	}
	return r, nil
}

// publish makes the rewritten rows (nil: all of them) visible to
// readers as a new epoch. Call with mu held.
func (r *Replica) publish(dirty []int) { r.chain.Publish(r.sys.Freezer(), dirty) }

// publishStats refreshes the lock-free fault-process counters. Call
// with mu held after touching sub.
func (r *Replica) publishStats() {
	st := r.sub.Stats()
	r.subStats.Store(&st)
}

// Recoverer returns the replica's recoverer (nil when recovery is off
// or the backend is compressed). Its Stats and rate setters are
// internally synchronized.
func (r *Replica) Recoverer() *recovery.Recoverer { return r.rec }

// Substrate names the mounted fault process and returns its latest
// counters; ok is false without one. Lock-free.
func (r *Replica) Substrate() (name string, stats substrate.Stats, ok bool) {
	if r.sub == nil {
		return "", substrate.Stats{}, false
	}
	return r.sub.Name(), *r.subStats.Load(), true
}

// RecoveryWrites counts recovery substitution writes billed to the
// fault process.
func (r *Replica) RecoveryWrites() int64 { return r.recoveryWrites.Load() }

// Acquire pins the current epoch for a batch of reads; the caller must
// Release it.
func (r *Replica) Acquire() *model.Epoch { return r.chain.Acquire() }

// EpochStats reports the epoch chain's publication counters.
func (r *Replica) EpochStats() model.EpochStats { return r.chain.Stats() }

// Score classifies qs against the current epoch, with confidences at
// the model package's fixed softmax scale, the one the recovery gate
// uses. It never fails; the error is the Member signature's.
func (r *Replica) Score(qs []*bitvec.Vector) ([]int, []float64, error) {
	classes := make([]int, len(qs))
	confs := make([]float64, len(qs))
	ep := r.chain.Acquire()
	img := ep.Frozen()
	for i, q := range qs {
		classes[i], confs[i] = img.PredictWithConfidence(q, 0)
	}
	ep.Release()
	return classes, confs, nil
}

// Summary digests the current epoch into per-class chunk hashes
// (chunks is clamped to the dimensionality). It never fails.
func (r *Replica) Summary(chunks int) (Summary, error) {
	ep := r.chain.Acquire()
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
	return s, nil
}

// Chunks copies the bits of each named range out of the current epoch.
// It never fails.
func (r *Replica) Chunks(refs []ChunkRef) ([]*bitvec.Vector, error) {
	ep := r.chain.Acquire()
	defer ep.Release()
	img := ep.Frozen()
	out := bitvec.NewMany(chunkLens(refs))
	for i, ref := range refs {
		img.ClassVector(ref.Class).SliceInto(out[i], ref.Lo)
	}
	return out, nil
}

// chunkLens returns the bit length of each ref's range.
func chunkLens(refs []ChunkRef) []int {
	lens := make([]int, len(refs))
	for i, ref := range refs {
		lens[i] = ref.Hi - ref.Lo
	}
	return lens
}

// Observe feeds one trusted query to the recoverer and returns the
// bits it substituted. Substitutions are memory writes: they are
// billed to the fault process, and the one class they touched is
// published. A replica without a recoverer, or a query of another
// dimensionality (a model swapped in since it was encoded), is a
// no-op.
func (r *Replica) Observe(q *bitvec.Vector) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.rec == nil || q.Len() != r.sys.Dimensions() {
		return 0
	}
	before := r.rec.Stats().BitsSubstituted
	pred, updated := r.rec.Observe(q)
	if !updated {
		return 0
	}
	r.publish([]int{pred})
	d := r.rec.Stats().BitsSubstituted - before
	if d > 0 && r.sub != nil {
		r.sub.NoteWrites(d)
		r.recoveryWrites.Add(int64(d))
		r.publishStats()
	}
	return d
}

// Advance advances the fault process by elapsed simulated time and
// publishes a full reimage if it flipped anything (it may hit any
// class). Without a fault process it is a no-op.
func (r *Replica) Advance(elapsed time.Duration) (attack.Result, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sub == nil {
		return attack.Result{}, nil
	}
	res, err := r.sub.Advance(elapsed)
	r.publishStats()
	if res.BitsFlipped > 0 {
		r.faultBits.Add(int64(res.BitsFlipped))
		r.publish(nil)
	}
	return res, err
}

// Mutate runs fn — an attack drill, a retrain apply — with exclusive
// access to the system, then publishes a full reimage: fn may have
// rewritten anything.
func (r *Replica) Mutate(fn func(*core.System) error) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	err := fn(r.sys)
	r.publish(nil)
	return err
}

// Repair overwrites each patch's range of the class vectors, bills
// every patched bit to the fault process exactly like a recovery
// substitution, publishes the classes it rewrote, and returns how many
// bits each patch actually changed. Patches must be in range; callers
// validate untrusted ones first.
func (r *Replica) Repair(patches []Patch) []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.sys.Model()
	changed := make([]int, len(patches))
	var dirty []int
	wrote := 0
	for i, p := range patches {
		cv := m.ClassVector(p.Class)
		changed[i] = cv.Slice(p.Lo, p.Lo+p.Bits.Len()).Hamming(p.Bits)
		cv.OverwriteSlice(p.Bits, p.Lo)
		wrote += p.Bits.Len()
		if !slices.Contains(dirty, p.Class) {
			dirty = append(dirty, p.Class)
		}
	}
	if r.sub != nil {
		r.sub.NoteWrites(wrote)
		r.publishStats()
	}
	r.publish(dirty)
	return changed
}

// Reseed re-images the deployed rows from donor, which must have this
// replica's backend and shape (a LogHD donor also its plane count,
// which StorageBits pins). The full-image rewrite is substrate
// traffic: rows × D writes are billed and the process refreshed
// (decayed cells recharge; stuck cells stay stuck — wear survives
// re-imaging). Every row is published. Quarantine re-seeds, node
// re-seeds and watchdog rollbacks all land here.
func (r *Replica) Reseed(donor *core.System) error {
	if donor.Backend() != r.sys.Backend() || donor.Classes() != r.sys.Classes() ||
		donor.Dimensions() != r.sys.Dimensions() || donor.Features() != r.sys.Features() ||
		donor.StorageBits() != r.sys.StorageBits() {
		return fmt.Errorf("fleet: donor shape (%s, %d classes, D=%d, %d features) != live (%s, %d, %d, %d)",
			donor.Backend(), donor.Classes(), donor.Dimensions(), donor.Features(),
			r.sys.Backend(), r.sys.Classes(), r.sys.Dimensions(), r.sys.Features())
	}
	snap := donor.Snapshot()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sys.Restore(snap)
	if r.sub != nil {
		r.sub.NoteWrites(len(snap) * r.sys.Dimensions())
		r.sub.Refresh()
		r.publishStats()
	}
	r.publish(nil)
	return nil
}

// Save serializes the system under the read lock, so no writer tears
// the image: stamped with a probe accuracy or agreement (NaN for
// none), and anchored to a sealed journal root when anchor is non-nil.
func (r *Replica) Save(w io.Writer, stamp float64, anchor *core.JournalAnchor) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.sys.SaveAnchored(w, stamp, anchor)
}

// member is the in-process Member: a Replica driven by the fleet's
// Dispatcher. Replicas keep no journal of their own (the fleet's
// journal is the dispatcher's) and cannot be unreachable.
type member struct{ *Replica }

func (m member) Repair(patches []Patch) error {
	m.Replica.Repair(patches)
	return nil
}

func (m member) Snapshot(stamp float64) ([]byte, error) {
	var buf bytes.Buffer
	err := m.Save(&buf, stamp, nil)
	return buf.Bytes(), err
}

func (m member) Reseed(image []byte) error {
	donor, _, err := core.LoadStamped(bytes.NewReader(image))
	if err != nil {
		return err
	}
	return m.Replica.Reseed(donor)
}

func (member) VerifyJournal() error { return nil }

func (member) Probe() bool { return true }

// Describe adds fault and recovery counters, lock-free.
func (m member) Describe(st *ReplicaStatus) {
	st.FaultBits = m.faultBits.Load()
	if _, s, ok := m.Substrate(); ok {
		st.Substrate = &s
	}
	if m.rec != nil {
		s := m.rec.Stats()
		st.Recovery = &s
	}
}
