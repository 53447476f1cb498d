package fleet

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bitvec"
	"repro/internal/recovery"
	"repro/internal/substrate"
)

// ErrDown marks a member that could not be reached. Only errors
// wrapping it advance the failure ladder; any other member error is a
// refusal of the request, which says nothing about the member's health.
var ErrDown = errors.New("fleet: member unreachable")

// ErrUnverified marks a member whose own journal does not verify — the
// donor-trust gate refuses to re-image anyone from it.
var ErrUnverified = errors.New("journal does not verify")

// Member is one replica as the replication algorithm drives it. The
// Dispatcher decides everything — who votes, what diverged, who is
// quarantined, who is down — and a member only answers for its own
// model. Q is the query type the member scores: an in-process replica
// scores hypervectors the caller already encoded, a cluster node
// (internal/cluster) takes raw features and encodes them itself, so no
// query is encoded twice and no hypervector crosses the wire.
type Member[Q any] interface {
	// Score classifies a batch against the member's current model.
	Score(qs []Q) ([]int, []float64, error)
	// Summary digests the deployed class vectors chunk by chunk.
	Summary(chunks int) (Summary, error)
	// Chunks returns the bits of each named range, index-aligned.
	Chunks(refs []ChunkRef) ([]*bitvec.Vector, error)
	// Repair overwrites each patch's range with the patch bits.
	Repair(patches []Patch) error
	// Snapshot serializes the model in the core.SaveStamped format,
	// stamped with the member's agreement with the majority.
	Snapshot(stamp float64) ([]byte, error)
	// Reseed re-images the model from another member's Snapshot.
	Reseed(image []byte) error
	// VerifyJournal is the donor-trust gate: nil, or ErrUnverified when
	// the member's own journal does not verify (an exchange failure is
	// returned as such).
	VerifyJournal() error
	// Probe reports whether a Down member answers again.
	Probe() bool
	// Describe adds the member's own counters to its status row.
	Describe(*ReplicaStatus)
}

// Summary is a member's divergence digest: Hashes[class][chunk] is
// ChunkHash over the bits ChunkBounds assigns to that chunk.
type Summary struct {
	Classes, Dims, Chunks int
	Hashes                [][]uint64
}

// ChunkRef names bits [Lo, Hi) of class vector Class.
type ChunkRef struct {
	Class int `json:"class"`
	Lo    int `json:"lo"`
	Hi    int `json:"hi"`
}

// Patch is a majority image for one chunk: Bits replaces bits
// [Lo, Lo+Bits.Len()) of class vector Class.
type Patch struct {
	Class, Lo int
	Bits      *bitvec.Vector
}

// Ladder parameterizes the failure ladder that parks unreachable
// members Down. In-process replicas never fail, so it only ever
// engages for cluster nodes.
type Ladder struct {
	// FailThreshold consecutive unreachable exchanges take a member out
	// of rotation (default 3).
	FailThreshold int
	// RejoinProbes consecutive successful probes — one per sweep — bring
	// a Down member back (default 2). A flapping member keeps resetting
	// the streak and stays out, so the rotation never thrashes.
	RejoinProbes int
}

// Member lifecycle states. Quarantined members await a reseed; Down
// members are unreachable until probes earn them back.
const (
	stateActive int32 = iota
	stateQuarantined
	stateDown
)

var stateNames = [...]string{"active", "quarantined", "down"}

// slot is the Dispatcher's bookkeeping for one member.
type slot[Q any] struct {
	id int
	m  Member[Q]

	state       atomic.Int32
	consecFails atomic.Int32
	rejoinOKs   int // consecutive good probes; sweep-driven, under aeMu

	served       atomic.Int64
	failures     atomic.Int64
	repairedBits atomic.Int64
	quarantines  atomic.Int64
	reseeds      atomic.Int64
	downs        atomic.Int64
	rejoins      atomic.Int64
	divergence   atomic.Uint64 // math.Float64bits of the last sweep's measurement
}

func (s *slot[Q]) active() bool            { return s.state.Load() == stateActive }
func (s *slot[Q]) setDivergence(f float64) { s.divergence.Store(math.Float64bits(f)) }
func (s *slot[Q]) getDivergence() float64  { return math.Float64frombits(s.divergence.Load()) }

// Dispatcher runs the replication algorithm over a set of members:
// rotating read-quorum with escalation, the proven-healthy fast path,
// summary-driven anti-entropy, quarantine and reseed, and the
// Down/rejoin failure ladder. Fleet drives in-process replicas through
// it and cluster.Coordinator drives networked nodes; this is the only
// implementation of any of it.
type Dispatcher[Q any] struct {
	cfg    Config
	ladder Ladder
	slots  []*slot[Q]

	// cursor rotates fast-path and quorum-member selection so load and
	// wear spread evenly.
	cursor atomic.Uint64

	// health gates the fast single-member path. Bit 0 is the armed
	// flag; the bits above it count disarms. It is armed only by a
	// sweep that proves all members active and bit-identical, and
	// disarmed by anything that could make them diverge: substrate
	// flips, recovery substitutions, external mutation, repairs,
	// quarantines, a member going down or coming back. Every disarm
	// bumps the count, and a sweep arms only by a CompareAndSwap from
	// the word it read before taking its summaries, so a disarm that
	// lands mid-sweep is never overwritten by a proof that predates it.
	// False negatives only cost fan-out; a false positive would serve
	// unvoted answers, so every clearing site errs toward clearing. A
	// new Dispatcher starts disarmed: its members are proven identical
	// by the first clean sweep, unless their maker knows better (Fleet
	// forks them).
	health atomic.Uint64

	// aeMu serializes sweeps and lifecycle transitions; it nests
	// OUTSIDE every member lock.
	aeMu sync.Mutex

	fastPredicts   atomic.Int64
	quorumPredicts atomic.Int64
	escalations    atomic.Int64
	degraded       atomic.Int64
	sweeps         atomic.Int64
	repairs        atomic.Int64
	repairBits     atomic.Int64
	quarantines    atomic.Int64
	reseeds        atomic.Int64

	done   chan struct{}
	bg     sync.WaitGroup
	closed atomic.Bool
}

// NewDispatcher validates cfg (its Replicas is taken from the member
// count) and builds a dispatcher over members, which it addresses by
// index. It starts the sweep loop when cfg.AntiEntropy.Interval is set.
func NewDispatcher[Q any](members []Member[Q], cfg Config, ladder Ladder) (*Dispatcher[Q], error) {
	if len(members) == 0 {
		return nil, ErrNoReplicas
	}
	cfg.Replicas = len(members)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.fillDefaults()
	if ladder.FailThreshold <= 0 {
		ladder.FailThreshold = 3
	}
	if ladder.RejoinProbes <= 0 {
		ladder.RejoinProbes = 2
	}
	d := &Dispatcher[Q]{cfg: cfg, ladder: ladder, done: make(chan struct{})}
	for i, m := range members {
		d.slots = append(d.slots, &slot[Q]{id: i, m: m})
	}
	if cfg.AntiEntropy.Interval > 0 {
		d.every(cfg.AntiEntropy.Interval, func(time.Time) { _, _ = d.SweepNow() })
	}
	return d, nil
}

// Size returns the member count.
func (d *Dispatcher[Q]) Size() int { return len(d.slots) }

// Quorum returns the configured read-quorum.
func (d *Dispatcher[Q]) Quorum() int { return d.cfg.Quorum }

// Healthy reports whether the fast single-member path is engaged.
func (d *Dispatcher[Q]) Healthy() bool { return d.health.Load()&1 != 0 }

// disarm drops the fast path and bumps the disarm count, so a sweep
// that read the health word before this call can no longer arm it.
func (d *Dispatcher[Q]) disarm() {
	for {
		old := d.health.Load()
		// (old|1)+1 clears the armed bit and carries into the count.
		if d.health.CompareAndSwap(old, (old|1)+1) {
			return
		}
	}
}

// settle ends a sweep that read the health word as start before its
// summaries: a sweep that proved the members identical arms the fast
// path unless a disarm has landed since start; any other sweep
// disarms it.
func (d *Dispatcher[Q]) settle(start uint64, proven bool) {
	if !proven {
		d.disarm()
		return
	}
	d.health.CompareAndSwap(start, start|1)
}

// Active returns how many members are in rotation.
func (d *Dispatcher[Q]) Active() int { return len(d.actives()) }

func (d *Dispatcher[Q]) actives() []*slot[Q] {
	out := make([]*slot[Q], 0, len(d.slots))
	for _, s := range d.slots {
		if s.active() {
			out = append(out, s)
		}
	}
	return out
}

// note feeds one member exchange to the failure ladder and reports
// whether it succeeded. Only ErrDown counts as a failure — a member
// refusing a request is alive, it was just asked something wrong.
func (d *Dispatcher[Q]) note(s *slot[Q], err error) bool {
	if err == nil {
		s.consecFails.Store(0)
		return true
	}
	if !errors.Is(err, ErrDown) {
		return false
	}
	s.failures.Add(1)
	fails := s.consecFails.Add(1)
	if int(fails) >= d.ladder.FailThreshold && s.state.CompareAndSwap(stateActive, stateDown) {
		s.downs.Add(1)
		d.disarm()
		d.journalAppend(Event{Kind: EventWatchdog, Replica: s.id, Class: -1, Chunk: -1,
			Detail: fmt.Sprintf("member down after %d consecutive failures", fails)})
	}
	return false
}

// Mutate runs fn — an external change to member id, such as an attack
// drill — after disarming the fast path: a change that landed while it
// stayed armed would serve unvoted answers from a possibly-corrupted
// member. It disarms again once fn returns, so a sweep whose summaries
// raced fn cannot arm on them. fn's error feeds the failure ladder.
func (d *Dispatcher[Q]) Mutate(id int, fn func() error) error {
	if id < 0 || id >= len(d.slots) {
		return fmt.Errorf("fleet: no member %d", id)
	}
	d.disarm()
	err := fn()
	d.disarm()
	d.note(d.slots[id], err)
	return err
}

// journalAppend stamps the configured tenant id onto the event and
// appends it. Source-level stamping — rather than the journal's
// default tag — keeps a journal shared across tenants correctly
// attributed.
func (d *Dispatcher[Q]) journalAppend(e Event) {
	if e.Model == "" {
		e.Model = d.cfg.ModelID
	}
	_ = d.cfg.Journal.Append(e)
}

// parallel runs fn(0..n-1) concurrently, fn(0) on the calling goroutine.
func parallel(n int, fn func(i int)) {
	var wg sync.WaitGroup
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(i)
		}(i)
	}
	if n > 0 {
		fn(0)
	}
	wg.Wait()
}

// score scores the batch on one member, driving the failure ladder.
func (d *Dispatcher[Q]) score(s *slot[Q], qs []Q) ([]int, []float64, error) {
	classes, confs, err := s.m.Score(qs)
	if !d.note(s, err) {
		return nil, nil, err
	}
	s.served.Add(int64(len(qs)))
	return classes, confs, nil
}

// fan scores the batch on every listed member concurrently, keeping
// list order. Failed members leave nil answers and their error.
func (d *Dispatcher[Q]) fan(ss []*slot[Q], qs []Q) ([][]int, [][]float64, []error) {
	votes := make([][]int, len(ss))
	confs := make([][]float64, len(ss))
	errs := make([]error, len(ss))
	parallel(len(ss), func(i int) { votes[i], confs[i], errs[i] = d.score(ss[i], qs) })
	return votes, confs, errs
}

// ScoreBatch classifies a batch through the members and returns
// per-query classes and confidences.
//
// Healthy fast path: the whole batch scores on one member, round-robin;
// an unreachable member drops the batch to the quorum path. Otherwise
// Quorum members picked by the rotating cursor score it concurrently,
// a unanimous quorum answers directly, and any disagreement escalates
// to the full active set with majority vote (ResolveVotes). With three
// members and one corrupted, escalation guarantees the two healthy
// ones outvote it on every query. Members that fail mid-batch are
// dropped from the vote — the batch degrades to the survivors rather
// than stalling. A member's refusal (an error not wrapping ErrDown) is
// returned when no member answered, or at once on the fast path.
func (d *Dispatcher[Q]) ScoreBatch(qs []Q) ([]int, []float64, error) {
	if len(qs) == 0 {
		return []int{}, []float64{}, nil
	}
	act := d.actives()
	if len(act) == 0 {
		return nil, nil, ErrNoReplicas
	}
	if d.Healthy() && len(act) == len(d.slots) {
		classes, confs, err := d.score(act[d.cursor.Add(1)%uint64(len(act))], qs)
		if err == nil {
			d.fastPredicts.Add(int64(len(qs)))
			return classes, confs, nil
		}
		if !errors.Is(err, ErrDown) {
			// The member vetoed the request itself — every other member
			// would say the same, and this one is demonstrably alive.
			return nil, nil, err
		}
		d.disarm()
		if act = d.actives(); len(act) == 0 {
			return nil, nil, ErrNoReplicas
		}
	}

	k := min(d.cfg.Quorum, len(act))
	start := d.cursor.Add(1)
	members := make([]*slot[Q], k)
	for i := range members {
		members[i] = act[(start+uint64(i))%uint64(len(act))]
	}
	votes, vconfs, verrs := d.fan(members, qs)
	// answers[id] holds each member's votes so escalation reuses them.
	answers := make([][]int, len(d.slots))
	answerConfs := make([][]float64, len(d.slots))
	var live [][]int
	var liveConfs [][]float64
	for i, s := range members {
		if votes[i] != nil {
			answers[s.id], answerConfs[s.id] = votes[i], vconfs[i]
			live, liveConfs = append(live, votes[i]), append(liveConfs, vconfs[i])
		}
	}
	if len(live) == 0 {
		for _, e := range verrs {
			if !errors.Is(e, ErrDown) {
				return nil, nil, e
			}
		}
		return nil, nil, fmt.Errorf("%w: all %d quorum members failed", ErrNoReplicas, k)
	}
	if len(live) < k {
		d.degraded.Add(1)
	}
	d.quorumPredicts.Add(int64(len(qs)))

	full := func() ([][]int, [][]float64, error) {
		// Every active member in id order, scoring (concurrently) only
		// those the quorum did not already hear from.
		var need []*slot[Q]
		for _, s := range act {
			if answers[s.id] == nil {
				need = append(need, s)
			}
		}
		nv, nc, _ := d.fan(need, qs)
		for i, s := range need {
			answers[s.id], answerConfs[s.id] = nv[i], nc[i]
		}
		var fullVotes [][]int
		var fullConfs [][]float64
		for _, s := range act {
			if answers[s.id] != nil {
				fullVotes, fullConfs = append(fullVotes, answers[s.id]), append(fullConfs, answerConfs[s.id])
			}
		}
		if len(fullVotes) == 0 {
			return nil, nil, ErrNoReplicas
		}
		return fullVotes, fullConfs, nil
	}
	classes, confs, escalated, err := ResolveVotes(live, liveConfs, full)
	if err != nil {
		return nil, nil, err
	}
	if escalated {
		d.escalations.Add(1)
	}
	return classes, confs, nil
}

// ReplicaStatus is one member's externally visible state.
type ReplicaStatus struct {
	ID int `json:"id"`
	// Addr is a networked member's base URL.
	Addr  string `json:"addr,omitempty"`
	State string `json:"state"`
	// Served counts queries this member scored (fast path and quorum
	// fan-outs both count); Failures counts ErrDown exchanges, not refusals.
	Served   int64 `json:"served"`
	Failures int64 `json:"failures,omitempty"`
	// Divergence is the fraction of this member's model bits that
	// disagreed with the majority at the last anti-entropy sweep.
	Divergence   float64 `json:"divergence"`
	RepairedBits int64   `json:"repaired_bits"`
	// FaultBits counts substrate flips applied by an in-process
	// replica's scrubber.
	FaultBits   int64 `json:"fault_bits"`
	Quarantines int64 `json:"quarantines"`
	Reseeds     int64 `json:"reseeds"`
	// Downs / Rejoins count failure-ladder transitions.
	Downs   int64 `json:"downs,omitempty"`
	Rejoins int64 `json:"rejoins,omitempty"`
	// Substrate is the replica's fault-process counters (nil without a
	// mounted substrate).
	Substrate *substrate.Stats `json:"substrate,omitempty"`
	// Recovery is the replica's self-healing counters (nil when
	// recovery is disabled).
	Recovery *recovery.Stats `json:"recovery,omitempty"`
}

// Status is the externally visible state (/fleet endpoint).
type Status struct {
	Replicas []ReplicaStatus `json:"replicas,omitempty"`
	Quorum   int             `json:"quorum"`
	// Healthy reports whether the fast single-member path is engaged
	// (every member active and proven bit-identical by the last sweep).
	Healthy bool `json:"healthy"`
	// FastPredicts / QuorumPredicts split served queries by path;
	// Escalations counts quorum disagreements that forced a full vote;
	// Degraded counts batches answered with quorum members missing.
	FastPredicts   int64 `json:"fast_predicts"`
	QuorumPredicts int64 `json:"quorum_predicts"`
	Escalations    int64 `json:"escalations"`
	Degraded       int64 `json:"degraded,omitempty"`
	// Sweeps / Repairs / RepairBits / Quarantines / Reseeds summarize
	// anti-entropy activity.
	Sweeps      int64 `json:"sweeps"`
	Repairs     int64 `json:"repairs"`
	RepairBits  int64 `json:"repair_bits"`
	Quarantines int64 `json:"quarantines"`
	Reseeds     int64 `json:"reseeds"`
	// JournalSeq is the last journal sequence number (0 without a
	// journal). JournalSealedSeq is the highest Merkle-sealed seq, and
	// JournalErrors counts appends the sink rejected — the journal's
	// health signal, since call sites intentionally drop append errors
	// on the serving path.
	JournalSeq       int64 `json:"journal_seq"`
	JournalSealedSeq int64 `json:"journal_sealed_seq"`
	JournalErrors    int64 `json:"journal_errors"`
}

// Status snapshots dispatcher and per-member counters.
func (d *Dispatcher[Q]) Status() Status {
	js := d.cfg.Journal.Stats()
	st := Status{
		Quorum:           d.cfg.Quorum,
		Healthy:          d.Healthy(),
		FastPredicts:     d.fastPredicts.Load(),
		QuorumPredicts:   d.quorumPredicts.Load(),
		Escalations:      d.escalations.Load(),
		Degraded:         d.degraded.Load(),
		Sweeps:           d.sweeps.Load(),
		Repairs:          d.repairs.Load(),
		RepairBits:       d.repairBits.Load(),
		Quarantines:      d.quarantines.Load(),
		Reseeds:          d.reseeds.Load(),
		JournalSeq:       js.Seq,
		JournalSealedSeq: js.SealedSeq,
		JournalErrors:    js.Errors,
	}
	for _, s := range d.slots {
		rs := ReplicaStatus{
			ID:           s.id,
			State:        stateNames[s.state.Load()],
			Served:       s.served.Load(),
			Failures:     s.failures.Load(),
			Divergence:   s.getDivergence(),
			RepairedBits: s.repairedBits.Load(),
			Quarantines:  s.quarantines.Load(),
			Reseeds:      s.reseeds.Load(),
			Downs:        s.downs.Load(),
			Rejoins:      s.rejoins.Load(),
		}
		s.m.Describe(&rs)
		st.Replicas = append(st.Replicas, rs)
	}
	return st
}

// every runs fn on each tick until Close.
func (d *Dispatcher[Q]) every(tick time.Duration, fn func(now time.Time)) {
	d.bg.Add(1)
	go func() {
		defer d.bg.Done()
		t := time.NewTicker(tick)
		defer t.Stop()
		for {
			select {
			case now := <-t.C:
				fn(now)
			case <-d.done:
				return
			}
		}
	}()
}

// Close stops the background loops. Calls racing Close still answer;
// the dispatcher holds no queues of its own.
func (d *Dispatcher[Q]) Close() {
	if !d.closed.CompareAndSwap(false, true) {
		return
	}
	close(d.done)
	d.bg.Wait()
}
