package fleet

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// Event kinds recorded in the journal. The journal is the fleet's
// flight recorder: every autonomous action that rewrites model memory
// or changes a replica's standing leaves a line, so an operator can
// replay exactly how a deployment healed (or failed to).
const (
	// EventWatchdog records a single-server watchdog posture change
	// (escalation, rollback, checkpoint) — serve writes these.
	EventWatchdog = "watchdog"
	// EventRecovery records a burst of recovery substitutions billed
	// to a replica's substrate.
	EventRecovery = "recovery"
	// EventRepair records one anti-entropy chunk overwrite.
	EventRepair = "repair"
	// EventQuarantine records a replica leaving rotation.
	EventQuarantine = "quarantine"
	// EventReseed records a quarantined replica re-imaged from a donor.
	EventReseed = "reseed"
	// EventActivate records a replica returning to rotation.
	EventActivate = "activate"
	// EventSweep records one completed anti-entropy sweep.
	EventSweep = "sweep"
	// EventSeal is written by the journal itself: a Merkle root sealed
	// over the line hashes of events From..To. Seals are what make the
	// log tamper-evident beyond simple chaining — a sealed root can be
	// anchored into a snapshot and checked long after the fact.
	EventSeal = "seal"
)

// Event is one journal line. Seq is assigned by Append: a dense,
// monotonically increasing sequence number that Replay verifies, so a
// truncated or spliced journal is detectable.
type Event struct {
	Seq      int64  `json:"seq"`
	UnixNano int64  `json:"t"`
	Kind     string `json:"kind"`
	// Replica identifies the subject replica (-1 when fleet-wide).
	Replica int `json:"replica"`
	// Class and Chunk locate a repair (-1 when not chunk-scoped).
	Class int `json:"class"`
	Chunk int `json:"chunk"`
	// Bits is the bit traffic of the action (repaired bits, substituted
	// bits, reseed image size).
	Bits int `json:"bits,omitempty"`
	// Tier is the watchdog posture after a watchdog event.
	Tier int `json:"tier,omitempty"`
	// Detail is a short human-readable qualifier ("escalate",
	// "divergence 0.031", donor id, ...).
	Detail string `json:"detail,omitempty"`
	// Model identifies the tenant model the event belongs to in a
	// multi-model process (internal/registry); the writer stamps it at
	// the source. Untagged lines — single-model journals — omit the
	// field and belong to the default tenant.
	Model string `json:"model,omitempty"`
	// Prev chains the log: the hex SHA-256 of the previous journal
	// line's exact encoded bytes (the genesis constant for seq 1). Any
	// edit, splice, or reorder of a line breaks every later Prev, so
	// Replay can name the first bad seq.
	Prev string `json:"prev,omitempty"`
	// Root, From, To are set on seal events only: Root is the hex
	// Merkle root over the line hashes of events From..To.
	Root string `json:"root,omitempty"`
	From int64  `json:"from,omitempty"`
	To   int64  `json:"to,omitempty"`
}

// journalGenesis anchors the hash chain: seq 1's Prev field. A fixed
// public constant — the chain's strength is in linkage, not secrecy.
var journalGenesis = sha256.Sum256([]byte("repro/fleet journal genesis v1"))

// DefaultSealBatch is how many events accumulate before the journal
// automatically seals a Merkle batch. Small enough that an unsealed
// (and therefore only chain-protected) tail stays short; large enough
// that seal lines are a rounding error in the log.
const DefaultSealBatch = 64

// sealBatch is the retained record of one sealed Merkle batch: events
// from..to, their leaf hashes, the root, and the seal event's own seq.
// The leaves are kept so inclusion proofs can be served for any sealed
// event without re-reading the log.
type sealBatch struct {
	from, to, sealSeq int64
	root              [32]byte
	leaves            [][32]byte
}

// Journal is an append-only, hash-chained JSONL event log with
// periodic Merkle seals. A nil *Journal is valid and drops every
// append, so callers thread it through unconditionally.
//
// Appends serialize on an internal mutex; the underlying writer sees
// exactly one full line per event, in sequence order. Every line's
// Prev field commits to the previous line's bytes; every SealBatch
// events a seal line commits a Merkle root over the batch, from which
// per-event inclusion proofs are served (Proof) and the latest root is
// exported for snapshot anchoring (Anchor).
type Journal struct {
	mu        sync.Mutex
	w         io.Writer
	f         *os.File // owned when opened via OpenJournalFile
	path      string   // backing file, when known (enables VerifyFile)
	seq       int64
	lastT     int64 // last committed timestamp (monotonicity clamp)
	now       func() time.Time
	sync      bool
	sealEvery int

	lastHash [32]byte    // hash of the last written line (genesis before any)
	pending  [][32]byte  // line hashes since the last seal (incl. the seal line)
	pendFrom int64       // first seq covered by pending
	batches  []sealBatch // all sealed batches, in order

	errs atomic.Int64 // append/seal failures (satellite: no more silent drops)
}

// syncer is the stable-storage hook Journal uses in sync-on-append
// mode; *os.File implements it.
type syncer interface{ Sync() error }

// NewJournal writes events to w as JSON lines. The caller owns w's
// lifecycle (and buffering/fsync policy). The chain and seal machinery
// are always on; use SetSealBatch(0) to disable automatic sealing.
func NewJournal(w io.Writer) *Journal {
	return &Journal{
		w:         w,
		now:       time.Now,
		sealEvery: DefaultSealBatch,
		lastHash:  journalGenesis,
		pendFrom:  1,
	}
}

// SetSyncOnAppend makes every Append flush the sink to stable storage
// (when the sink implements Sync, e.g. *os.File) before returning.
// Cluster nodes run with this on: a SIGKILLed process must leave a
// journal whose every acknowledged event survives, at worst with one
// torn final line — which Replay tolerates and reports.
func (j *Journal) SetSyncOnAppend(on bool) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.sync = on
}

// SetSealBatch sets how many events accumulate before an automatic
// Merkle seal (default DefaultSealBatch). n <= 0 disables automatic
// sealing; SealNow and Close still seal on demand.
func (j *Journal) SetSealBatch(n int) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.sealEvery = n
}

// Append stamps the event with the next sequence number and the
// current time, chains it on the previous line's hash, and writes it.
// Nil journals drop the event. Write errors are returned (and counted
// — see Errors) but do not consume the failed sequence number, so a
// transiently failing sink cannot create gaps. When the append fills a
// seal batch the Merkle seal is written in the same call; a returned
// error may therefore report a failed seal after a successful append.
func (j *Journal) Append(e Event) error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.appendLocked(&e, false); err != nil {
		j.errs.Add(1)
		return err
	}
	if j.sealEvery > 0 && len(j.pending) >= j.sealEvery {
		if err := j.sealLocked(); err != nil {
			j.errs.Add(1)
			return err
		}
	}
	return nil
}

// appendLocked assigns seq/time/prev, writes the line, and commits the
// chain state — all only on full success, so a failed write leaves the
// journal exactly where it was. isSeal marks the line as opening the
// next batch instead of extending the current one.
func (j *Journal) appendLocked(e *Event, isSeal bool) error {
	e.Seq = j.seq + 1
	t := j.now().UnixNano()
	if t <= j.lastT {
		// Wall clock stepped backwards (NTP) or two appends landed in the
		// same nanosecond: repair to strictly increasing so the chain
		// stays replayable. The journal is an ordering record, not a
		// clock; ordering wins.
		t = j.lastT + 1
	}
	e.UnixNano = t
	e.Prev = hex.EncodeToString(j.lastHash[:])
	line, err := json.Marshal(e)
	if err != nil {
		return err
	}
	out := make([]byte, 0, len(line)+1)
	out = append(out, line...)
	out = append(out, '\n')
	if _, err := j.w.Write(out); err != nil {
		return err
	}
	if j.sync {
		if s, ok := j.w.(syncer); ok {
			if err := s.Sync(); err != nil {
				return err
			}
		}
	}
	j.seq = e.Seq
	j.lastT = t
	j.lastHash = sha256.Sum256(line)
	if isSeal {
		// The seal line itself becomes the first leaf of the next batch,
		// so no line — not even a seal — escapes Merkle coverage.
		j.pendFrom = e.Seq
		j.pending = append(j.pending[:0], j.lastHash)
	} else {
		j.pending = append(j.pending, j.lastHash)
	}
	return nil
}

// sealLocked writes a seal event carrying the Merkle root over the
// pending (unsealed) events and records the batch for proof service.
func (j *Journal) sealLocked() error {
	if len(j.pending) == 0 {
		return nil
	}
	from, to := j.pendFrom, j.seq
	root := merkleRoot(j.pending)
	leaves := append([][32]byte(nil), j.pending...)
	e := Event{
		Kind: EventSeal, Replica: -1, Class: -1, Chunk: -1,
		Root: hex.EncodeToString(root[:]), From: from, To: to,
	}
	if err := j.appendLocked(&e, true); err != nil {
		return err
	}
	j.batches = append(j.batches, sealBatch{from: from, to: to, sealSeq: e.Seq, root: root, leaves: leaves})
	return nil
}

// sealedToLocked is the highest sealed seq (0 before any seal).
func (j *Journal) sealedToLocked() int64 {
	if len(j.batches) == 0 {
		return 0
	}
	return j.batches[len(j.batches)-1].to
}

// SealNow seals the unsealed tail immediately (sync boundary). A
// journal with nothing new since its last seal is left untouched.
func (j *Journal) SealNow() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if len(j.pending) == 0 {
		return nil
	}
	if n := len(j.batches); n > 0 && j.batches[n-1].sealSeq == j.seq {
		return nil // only the previous seal line is pending — nothing new
	}
	if err := j.sealLocked(); err != nil {
		j.errs.Add(1)
		return err
	}
	return nil
}

// Close seals the unsealed tail and, when the journal owns its backing
// file (OpenJournalFile), closes it. Callers must stop appending
// first.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	err := j.SealNow()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f != nil {
		if cerr := j.f.Close(); err == nil {
			err = cerr
		}
		j.f = nil
	}
	return err
}

// Seq returns the last assigned sequence number (0 before any append).
func (j *Journal) Seq() int64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// Errors returns how many Append/seal attempts have failed since the
// journal was created. Call sites intentionally drop append errors on
// the fast path; this counter is how a failing sink becomes visible
// (surfaced in fleet.Status and serve /metrics).
func (j *Journal) Errors() int64 {
	if j == nil {
		return 0
	}
	return j.errs.Load()
}

// JournalStats is the journal's live chain state, as surfaced in
// status/metrics documents.
type JournalStats struct {
	Seq       int64  `json:"seq"`
	SealedSeq int64  `json:"sealed_seq"`
	Seals     int64  `json:"seals"`
	Errors    int64  `json:"errors"`
	LastRoot  string `json:"last_root,omitempty"`
}

// Stats snapshots the journal's chain state. Nil journals report zero.
func (j *Journal) Stats() JournalStats {
	if j == nil {
		return JournalStats{}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JournalStats{Seq: j.seq, Seals: int64(len(j.batches)), Errors: j.errs.Load()}
	if n := len(j.batches); n > 0 {
		st.SealedSeq = j.batches[n-1].to
		st.LastRoot = hex.EncodeToString(j.batches[n-1].root[:])
	}
	return st
}

// Proof serves an inclusion proof for a sealed seq: the Merkle audit
// path from that event's line hash up to the root its batch's seal
// event recorded. Unsealed (or never-written) seqs have no proof.
func (j *Journal) Proof(seq int64) (InclusionProof, error) {
	if j == nil {
		return InclusionProof{}, errors.New("fleet: no journal")
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	i := sort.Search(len(j.batches), func(i int) bool { return j.batches[i].to >= seq })
	if seq < 1 || i >= len(j.batches) {
		return InclusionProof{}, fmt.Errorf("fleet: seq %d is not sealed (sealed through %d)", seq, j.sealedToLocked())
	}
	b := j.batches[i]
	idx := int(seq - b.from)
	if idx < 0 || idx >= len(b.leaves) {
		return InclusionProof{}, fmt.Errorf("fleet: seq %d outside sealed batch [%d,%d]", seq, b.from, b.to)
	}
	path := merklePath(b.leaves, idx)
	p := InclusionProof{
		Seq:   seq,
		Leaf:  hex.EncodeToString(b.leaves[idx][:]),
		Index: idx,
		From:  b.from, To: b.to, SealSeq: b.sealSeq,
		Root: hex.EncodeToString(b.root[:]),
		Path: make([]string, len(path)),
	}
	for i, h := range path {
		p.Path[i] = hex.EncodeToString(h[:])
	}
	return p, nil
}

// Anchor exports the journal's latest sealed root for embedding into a
// stamped snapshot (core.SaveAnchored). ok is false before the first
// seal — an unanchored snapshot is still valid, it just carries no
// lineage claim.
func (j *Journal) Anchor() (core.JournalAnchor, bool) {
	if j == nil {
		return core.JournalAnchor{}, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	n := len(j.batches)
	if n == 0 {
		return core.JournalAnchor{}, false
	}
	return core.JournalAnchor{Root: j.batches[n-1].root, SealedSeq: uint64(j.batches[n-1].to)}, true
}

// VerifyAnchor checks a snapshot's journal anchor against this
// journal's sealed history: the anchor's sealed seq must correspond to
// a seal whose root matches. A snapshot anchored to a different
// lineage — or to sealed history this journal does not contain — is
// refused.
func (j *Journal) VerifyAnchor(a core.JournalAnchor) error {
	if j == nil {
		return errors.New("fleet: no journal to verify anchor against")
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return checkAnchorSeals(j.sealInfosLocked(), a)
}

func (j *Journal) sealInfosLocked() []SealInfo {
	seals := make([]SealInfo, len(j.batches))
	for i, b := range j.batches {
		seals[i] = SealInfo{From: b.from, To: b.to, SealSeq: b.sealSeq, Root: hex.EncodeToString(b.root[:])}
	}
	return seals
}

// checkAnchorSeals finds the seal covering the anchor's sealed seq and
// compares roots. Shared between live journals (VerifyAnchor) and
// replayed reports (VerifyReport.CheckAnchor).
func checkAnchorSeals(seals []SealInfo, a core.JournalAnchor) error {
	want := hex.EncodeToString(a.Root[:])
	for _, s := range seals {
		if uint64(s.To) == a.SealedSeq {
			if s.Root != want {
				return fmt.Errorf("fleet: journal seal through seq %d has root %s but the snapshot is anchored to %s — lineage diverged", s.To, s.Root, want)
			}
			return nil
		}
	}
	return fmt.Errorf("fleet: no seal through seq %d — the journal does not contain the snapshot's sealed lineage (truncated or foreign journal)", a.SealedSeq)
}

// VerifyFile re-reads and fully verifies the journal's backing file,
// then cross-checks it against the live chain state under the append
// lock — detecting on-disk tampering behind a running process,
// including suffix truncation that pure replay cannot see (replay of a
// truncated-at-a-seal-boundary file is self-consistent; comparison
// with the live tip is not). Journals without a known backing file
// report live state only.
func (j *Journal) VerifyFile() (VerifyReport, error) {
	if j == nil {
		return VerifyReport{}, errors.New("fleet: no journal")
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.path == "" {
		rep := VerifyReport{
			Events: j.seq,
			Seals:  j.sealInfosLocked(),
		}
		if n := len(j.batches); n > 0 {
			rep.SealedSeq = j.batches[n-1].to
			rep.LastRoot = hex.EncodeToString(j.batches[n-1].root[:])
		}
		return rep, nil
	}
	f, err := os.Open(j.path)
	if err != nil {
		return VerifyReport{}, err
	}
	defer f.Close()
	st, err := scanJournal(f)
	if err != nil {
		return VerifyReport{}, err
	}
	rep := st.report()
	if st.tornErr != nil {
		return rep, fmt.Errorf("fleet: journal file ends in a torn line while the process is live: %w", ErrTruncatedTail)
	}
	if int64(len(st.events)) != j.seq || st.lastHash != j.lastHash {
		return rep, fmt.Errorf("fleet: journal file holds %d events but the live chain is at seq %d with a different tip — on-disk history was rewritten or truncated", len(st.events), j.seq)
	}
	return rep, nil
}

// OpenJournalFile opens (or creates) a journal file for appending,
// resuming the hash chain across process restarts: existing content is
// replayed and verified (a journal that fails verification refuses to
// open — appending to a tampered log would launder it), a crash-torn
// final line is truncated away, and the returned journal continues
// seq, chain, and seal state exactly where the acknowledged history
// ends. The second return is the resumed seq. The journal owns the
// file; Close seals the tail and closes it.
func OpenJournalFile(path string) (*Journal, int64, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, 0, err
	}
	st, err := scanJournal(f)
	if err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("fleet: journal %s does not verify: %w", path, err)
	}
	end := st.goodBytes
	if st.tornErr != nil {
		end = st.tornOff // drop the torn tail; everything before it verified
	}
	if err := f.Truncate(end); err != nil {
		f.Close()
		return nil, 0, err
	}
	if _, err := f.Seek(end, io.SeekStart); err != nil {
		f.Close()
		return nil, 0, err
	}
	if st.tornErr == nil && st.unterminated {
		// The final line is complete and verified but lost its newline in
		// a crash; finish the write Append started.
		if _, err := f.Write([]byte{'\n'}); err != nil {
			f.Close()
			return nil, 0, err
		}
	}
	j := &Journal{
		w: f, f: f, path: path,
		now:       time.Now,
		sealEvery: DefaultSealBatch,
		seq:       int64(len(st.events)),
		lastT:     st.lastT,
		lastHash:  st.lastHash,
		pending:   st.pending,
		pendFrom:  st.pendFrom,
		batches:   st.batches,
	}
	return j, j.seq, nil
}

// ErrTruncatedTail reports a journal whose final line is not valid —
// the signature of a process killed mid-append. Replay returns it
// alongside every event before the torn line, so crash forensics keep
// the full acknowledged timeline while still surfacing that the log
// ends in a wound rather than a clean line.
var ErrTruncatedTail = errors.New("fleet: journal truncated mid-write on final line")

// SealInfo describes one verified seal in a replayed journal.
type SealInfo struct {
	From    int64  `json:"from"`
	To      int64  `json:"to"`
	SealSeq int64  `json:"seal_seq"`
	Root    string `json:"root"`
}

// VerifyReport summarizes a verified journal stream: how far it runs
// and every Merkle seal it carries.
type VerifyReport struct {
	Events    int64      `json:"events"`
	SealedSeq int64      `json:"sealed_seq"`
	LastRoot  string     `json:"last_root,omitempty"`
	TornTail  bool       `json:"torn_tail"`
	Seals     []SealInfo `json:"seals,omitempty"`
}

// CheckAnchor verifies a snapshot's journal anchor against the
// replayed seals — the offline counterpart of Journal.VerifyAnchor.
func (rep VerifyReport) CheckAnchor(a core.JournalAnchor) error {
	return checkAnchorSeals(rep.Seals, a)
}

// scanState is the full outcome of scanning a journal stream: the
// timeline, the verification report inputs, and the resume state a
// re-opened journal needs to continue the chain.
type scanState struct {
	events []Event

	lastHash [32]byte
	lastT    int64
	pending  [][32]byte
	pendFrom int64
	batches  []sealBatch

	goodBytes    int64 // byte offset just past the last verified line
	unterminated bool  // last verified line had no trailing newline

	tornOff  int64 // byte offset of the torn final line (-1 none)
	tornLine int
	tornErr  error
}

func (st *scanState) report() VerifyReport {
	rep := VerifyReport{
		Events:   int64(len(st.events)),
		TornTail: st.tornErr != nil,
	}
	for _, b := range st.batches {
		rep.Seals = append(rep.Seals, SealInfo{From: b.from, To: b.to, SealSeq: b.sealSeq, Root: hex.EncodeToString(b.root[:])})
	}
	if n := len(st.batches); n > 0 {
		rep.SealedSeq = st.batches[n-1].to
		rep.LastRoot = hex.EncodeToString(st.batches[n-1].root[:])
	}
	return rep
}

// scanJournal reads a journal stream line by line, verifying sequence
// density, timestamp order, the hash chain, and every Merkle seal. It
// returns a hard error for any violation before the final line; a
// failure on the final line only is recorded as a torn tail in the
// returned state. A line without a Prev field breaks the chain like
// any other wrong Prev.
func scanJournal(r io.Reader) (*scanState, error) {
	st := &scanState{lastHash: journalGenesis, pendFrom: 1, tornOff: -1}
	br := bufio.NewReaderSize(r, 64*1024)
	var off int64
	for lineNo := 1; ; lineNo++ {
		raw, rerr := br.ReadBytes('\n')
		if len(raw) > 0 {
			lineOff := off
			off += int64(len(raw))
			line := raw
			terminated := false
			if line[len(line)-1] == '\n' {
				line = line[:len(line)-1]
				terminated = true
			}
			if len(line) > 0 {
				if st.tornErr != nil {
					// The failure was not on the final line after all.
					return nil, fmt.Errorf("fleet: journal line %d: %w", st.tornLine, st.tornErr)
				}
				if err := st.verifyLine(line, lineNo); err != nil {
					if isHardViolation(err) {
						return nil, err
					}
					st.tornOff, st.tornLine, st.tornErr = lineOff, lineNo, err
				} else {
					st.goodBytes = off
					st.unterminated = !terminated
				}
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return nil, fmt.Errorf("fleet: journal scan: %w", rerr)
		}
	}
	return st, nil
}

// hardViolation marks verification failures that a torn final write
// cannot produce — sequence/time/chain/seal violations on a line that
// parsed — so they stay hard errors even on the last line.
type hardViolation struct{ err error }

func (h hardViolation) Error() string { return h.err.Error() }
func (h hardViolation) Unwrap() error { return h.err }

func isHardViolation(err error) bool {
	var h hardViolation
	return errors.As(err, &h)
}

// verifyLine parses and verifies one journal line, committing it into
// the scan state on success. A parse failure is returned bare (torn
// tail candidate); everything after a successful parse is a
// hardViolation.
func (st *scanState) verifyLine(line []byte, lineNo int) error {
	var e Event
	if err := json.Unmarshal(line, &e); err != nil {
		return err
	}
	hard := func(format string, args ...any) error {
		return hardViolation{fmt.Errorf(format, args...)}
	}
	if want := int64(len(st.events)) + 1; e.Seq != want {
		return hard("fleet: journal line %d: seq %d, want %d", lineNo, e.Seq, want)
	}
	if e.UnixNano < st.lastT {
		return hard("fleet: journal line %d: time runs backwards", lineNo)
	}
	lineHash := sha256.Sum256(line)
	if e.Prev != hex.EncodeToString(st.lastHash[:]) {
		return hard("fleet: journal seq %d: hash chain broken — line %d or its predecessor was modified, spliced, or reordered", e.Seq, lineNo)
	}
	if e.Kind == EventSeal {
		if e.From != st.pendFrom || e.To != e.Seq-1 || e.From > e.To {
			return hard("fleet: journal seq %d: seal range [%d,%d] does not cover the unsealed events [%d,%d]", e.Seq, e.From, e.To, st.pendFrom, e.Seq-1)
		}
		root := merkleRoot(st.pending)
		if e.Root != hex.EncodeToString(root[:]) {
			return hard("fleet: journal seq %d: merkle root mismatch — events %d..%d do not hash to the sealed root", e.Seq, e.From, e.To)
		}
		st.batches = append(st.batches, sealBatch{
			from: e.From, to: e.To, sealSeq: e.Seq, root: root,
			leaves: append([][32]byte(nil), st.pending...),
		})
		st.pendFrom = e.Seq
		st.pending = append(st.pending[:0], lineHash)
	} else {
		st.pending = append(st.pending, lineHash)
	}
	st.lastHash = lineHash
	st.lastT = e.UnixNano
	st.events = append(st.events, e)
	return nil
}

// Replay parses a JSONL journal and verifies its integrity: sequence
// numbers must start at 1 and increase densely (no gaps, no reorders,
// no duplicates), timestamps must not run backwards, every line's prev
// hash must match its predecessor, and every seal's Merkle root must
// recompute, so any single-bit edit, splice, or reorder of a sealed
// region is rejected with an error naming the first bad seq. It
// returns the reconstructed timeline.
//
// A final line that fails to parse is tolerated as a crash-torn tail:
// Replay returns the events before it together with an error wrapping
// ErrTruncatedTail. A malformed line anywhere else — and any sequence,
// timestamp, chain, or seal violation, which truncation cannot produce
// — remains a hard error with a nil timeline. Note that a journal cut
// clean at a line boundary replays self-consistently; pair Replay with
// an anchor check (VerifyReport.CheckAnchor) or a live-state
// comparison (VerifyFile) to catch suffix truncation.
func Replay(r io.Reader) ([]Event, error) {
	st, err := scanJournal(r)
	if err != nil {
		return nil, err
	}
	if st.tornErr != nil {
		return st.events, fmt.Errorf("fleet: journal line %d: %v: %w", st.tornLine, st.tornErr, ErrTruncatedTail)
	}
	return st.events, nil
}

// Verify replays a journal stream and returns the integrity report —
// what Replay checks, plus the seal inventory for anchor verification.
// A torn final line is reported in the result, not returned as an
// error.
func Verify(r io.Reader) (VerifyReport, error) {
	st, err := scanJournal(r)
	if err != nil {
		return VerifyReport{}, err
	}
	return st.report(), nil
}
