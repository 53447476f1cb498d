package model

import (
	"sync/atomic"
)

// Epoch is one published model snapshot on an EpochChain: an immutable
// Frozen image plus the in-flight reader count that implements the
// RCU grace period. Epoch structs are allocated fresh per publication
// and never pooled — a stale reader may still be incrementing the
// counter of a superseded epoch while validating it, so reusing the
// struct would hand that reader a torn object.
type Epoch struct {
	img     *Frozen
	readers atomic.Int64
}

// Frozen returns the epoch's immutable scoring image.
func (e *Epoch) Frozen() *Frozen { return e.img }

// Release drops the reader reference taken by EpochChain.Acquire.
// Every Acquire must be paired with exactly one Release; a leaked
// reference permanently pins the epoch's vectors out of the pool
// (correctness is unaffected — reclamation is an optimization).
func (e *Epoch) Release() { e.readers.Add(-1) }

// EpochChain is the RCU-style publication point for one model's
// deployed image.
//
// Readers call Acquire (lock-free: one atomic load, one increment, one
// validating reload), score any number of queries against the returned
// epoch's Frozen, and Release it. They never block writers and never
// observe a partially applied write: a publication is a single pointer
// swap to a fully built image.
//
// Writers mutate the live Model under their own mutex (the chain does
// not provide one) and call Publish in the same critical section. Each
// Publish clones only the dirty classes (sharing clean class vectors
// with the previous image), swaps the current-epoch pointer, and
// retires the superseded epoch onto a FIFO. A retired epoch's private
// vectors return to the FrozenPool once its reader count drains to
// zero — the grace period — so the steady-state publish/score cycle
// allocates only the epoch header.
//
// The acquire protocol is safe against the publish race by seq-cst
// ordering: a reader increments the counter and then re-loads the
// pointer; if the reload still names the epoch, the increment is
// ordered before the writer's swap in the total order of
// synchronization, so the writer's post-swap drain check must observe
// it. A reader that lost the race decrements and retries — its
// transient increment can only delay reclamation, never corrupt it.
type EpochChain struct {
	cur  atomic.Pointer[Epoch]
	pool *FrozenPool

	// retired is the writer-side FIFO of superseded epochs awaiting
	// drain; guarded by the caller's writer lock, like Publish.
	retired []*Epoch

	// published / recycled / backlog are observability counters
	// (atomic so /metrics can read them without the writer lock).
	published atomic.Int64
	recycled  atomic.Int64
	backlog   atomic.Int64
}

// NewEpochChain freezes f's current image as epoch zero — f is either
// a dense *Model or a compressed *LogHD deployment. The chain publishes
// through the backend's own pool: a vector the chain recycles is
// referenced by no later image of the chain, so sharing the pool with
// the backend's scoring, or with another chain over the same backend,
// is safe. The caller must hold the backend's writer lock if it has
// concurrent writers.
func NewEpochChain(f Freezer) *EpochChain {
	c := &EpochChain{pool: f.view().pool}
	e := &Epoch{img: f.Refreeze(nil, c.pool, nil)}
	c.cur.Store(e)
	c.published.Store(1)
	return c
}

// Acquire pins and returns the current epoch. Lock-free; pair with
// Epoch.Release.
func (c *EpochChain) Acquire() *Epoch {
	for {
		e := c.cur.Load()
		e.readers.Add(1)
		if c.cur.Load() == e {
			return e
		}
		// Lost the race with a Publish: retract and retry on the new
		// epoch. The transient count on the superseded epoch is benign.
		e.readers.Add(-1)
	}
}

// Publish freezes f's current deployed image as a new epoch and makes
// it current. Only the named dirty rows (class vectors, or planes for
// a compressed backend) are cloned; nil means all (full reimage).
// Must be called under the same writer lock that serialized the
// backend mutation being published.
func (c *EpochChain) Publish(f Freezer, dirty []int) {
	prev := c.cur.Load()
	next := &Epoch{img: f.Refreeze(prev.img, c.pool, dirty)}
	c.cur.Store(next)
	c.retired = append(c.retired, prev)
	c.published.Add(1)
	c.reclaim()
}

// reclaim recycles drained epochs from the front of the retired FIFO.
// Only the front may be reclaimed: its successor (the next retired
// epoch, or the current one) still references every shared vector, so
// recycling exactly the non-shared ones is safe once the front's
// readers hit zero. A still-pinned front blocks the queue — FIFO order
// is what keeps "absent from the successor" equivalent to "referenced
// nowhere".
func (c *EpochChain) reclaim() {
	n := 0
	for ; n < len(c.retired); n++ {
		e := c.retired[n]
		if e.readers.Load() != 0 {
			break
		}
		succ := c.cur.Load().img
		if n+1 < len(c.retired) {
			succ = c.retired[n+1].img
		}
		c.pool.recycleInto(e.img, succ)
		c.retired[n] = nil
		c.recycled.Add(1)
	}
	if n > 0 {
		c.retired = append(c.retired[:0], c.retired[n:]...)
	}
	c.backlog.Store(int64(len(c.retired)))
}

// EpochStats is the chain's observability snapshot.
type EpochStats struct {
	// Published counts epochs made current (including the initial one).
	Published int64 `json:"published"`
	// Recycled counts retired epochs whose private vectors returned to
	// the pool after their grace period.
	Recycled int64 `json:"recycled"`
	// Backlog is the number of superseded epochs still pinned by
	// in-flight readers at the last publish.
	Backlog int64 `json:"backlog"`
}

// Stats reads the chain's counters without any lock.
func (c *EpochChain) Stats() EpochStats {
	return EpochStats{
		Published: c.published.Load(),
		Recycled:  c.recycled.Load(),
		Backlog:   c.backlog.Load(),
	}
}
