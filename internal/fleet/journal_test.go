package fleet

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestJournalAppendAssignsDenseSeqs(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	for i := 0; i < 5; i++ {
		if err := j.Append(Event{Kind: EventRepair, Replica: i, Class: 0, Chunk: i, Bits: 10}); err != nil {
			t.Fatal(err)
		}
	}
	if j.Seq() != 5 {
		t.Fatalf("Seq() = %d, want 5", j.Seq())
	}
	events, err := Replay(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 5 {
		t.Fatalf("replayed %d events, want 5", len(events))
	}
	for i, e := range events {
		if e.Seq != int64(i)+1 || e.Replica != i || e.Kind != EventRepair {
			t.Fatalf("event %d = %+v", i, e)
		}
	}
}

func TestNilJournalDropsAppends(t *testing.T) {
	var j *Journal
	if err := j.Append(Event{Kind: EventSweep}); err != nil {
		t.Fatal(err)
	}
	if j.Seq() != 0 {
		t.Fatal("nil journal has a sequence")
	}
}

// chainLines encodes events as journal lines whose prev hashes link
// correctly, so a tampering case trips the check it names rather than
// the chain check.
func chainLines(t *testing.T, events ...Event) string {
	t.Helper()
	prev := journalGenesis
	var b strings.Builder
	for _, e := range events {
		e.Prev = hex.EncodeToString(prev[:])
		line, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(line)
		b.WriteByte('\n')
		prev = sha256.Sum256(line)
	}
	return b.String()
}

func TestReplayDetectsTampering(t *testing.T) {
	sweep := func(seq, t int64) Event {
		return Event{Seq: seq, UnixNano: t, Kind: EventSweep, Replica: -1, Class: -1, Chunk: -1}
	}
	cases := []struct {
		name, in, want string
	}{
		{"gap", chainLines(t, sweep(1, 10), sweep(3, 20)), "seq 3, want 2"},
		{"duplicate", chainLines(t, sweep(1, 10), sweep(1, 20)), "seq 1, want 2"},
		{"starts at zero", chainLines(t, sweep(0, 10)), "seq 0, want 1"},
		{"reorder", chainLines(t, sweep(2, 10), sweep(1, 20)), "seq 2, want 1"},
		{"time backwards", chainLines(t, sweep(1, 20), sweep(2, 10)), "time runs backwards"},
		{"garbage", "not json\n", "line 1"},
	}
	for _, c := range cases {
		if _, err := Replay(strings.NewReader(c.in)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Replay error %v, want one naming %q", c.name, err, c.want)
		}
	}
}

// TestReplayRejectsUnchainedLine: a line without a prev hash breaks
// the chain like any wrong prev — a hard error with no timeline,
// never a torn tail — whether it opens the journal or sits mid-stream,
// and OpenJournalFile refuses such a file.
func TestReplayRejectsUnchainedLine(t *testing.T) {
	_, raw := buildSealedJournal(t, 3, 0)
	lines := bytes.SplitAfter(raw, []byte("\n"))
	lines = lines[:len(lines)-1] // drop empty tail
	for _, at := range []int{0, 1} {
		var e Event
		if err := json.Unmarshal(bytes.TrimSuffix(lines[at], []byte("\n")), &e); err != nil {
			t.Fatal(err)
		}
		e.Prev = ""
		stripped, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		mut := append([][]byte(nil), lines...)
		mut[at] = append(stripped, '\n')
		data := bytes.Join(mut, nil)

		events, err := Replay(bytes.NewReader(data))
		if err == nil || errors.Is(err, ErrTruncatedTail) || events != nil {
			t.Fatalf("line %d without prev: Replay = %d events, %v; want a hard error", at+1, len(events), err)
		}
		if want := fmt.Sprintf("seq %d: hash chain broken", at+1); !strings.Contains(err.Error(), want) {
			t.Fatalf("line %d without prev: error %q does not name %q", at+1, err, want)
		}
		if _, err := Verify(bytes.NewReader(data)); err == nil {
			t.Fatalf("line %d without prev: Verify accepted", at+1)
		}
		path := t.TempDir() + "/unchained.journal"
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if j, _, err := OpenJournalFile(path); err == nil {
			j.Close()
			t.Fatalf("line %d without prev: OpenJournalFile accepted", at+1)
		}
	}
}

// TestReplayReconstructsRepairTimeline exercises the journal the way
// the fleet writes it: a mixed stream of repairs, a quarantine, a
// reseed, and sweeps, replayed back into a per-replica timeline.
func TestReplayReconstructsRepairTimeline(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	script := []Event{
		{Kind: EventSweep, Replica: -1, Class: -1, Chunk: -1},
		{Kind: EventRepair, Replica: 1, Class: 2, Chunk: 7, Bits: 125},
		{Kind: EventRepair, Replica: 1, Class: 3, Chunk: 1, Bits: 60},
		{Kind: EventQuarantine, Replica: 2, Class: -1, Chunk: -1, Detail: "divergence 0.3100"},
		{Kind: EventReseed, Replica: 2, Class: -1, Chunk: -1, Bits: 49152, Detail: "donor 0 agreement 1.0000"},
		{Kind: EventActivate, Replica: 2, Class: -1, Chunk: -1},
		{Kind: EventSweep, Replica: -1, Class: -1, Chunk: -1},
	}
	for _, e := range script {
		if err := j.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	events, err := Replay(&buf)
	if err != nil {
		t.Fatal(err)
	}
	repairedBits := 0
	var replica2 []string
	for _, e := range events {
		if e.Kind == EventRepair {
			repairedBits += e.Bits
		}
		if e.Replica == 2 {
			replica2 = append(replica2, e.Kind)
		}
	}
	if repairedBits != 185 {
		t.Fatalf("reconstructed %d repaired bits, want 185", repairedBits)
	}
	want := []string{EventQuarantine, EventReseed, EventActivate}
	if len(replica2) != len(want) {
		t.Fatalf("replica 2 timeline %v, want %v", replica2, want)
	}
	for i := range want {
		if replica2[i] != want[i] {
			t.Fatalf("replica 2 timeline %v, want %v", replica2, want)
		}
	}
}

// TestJournalConcurrentAppends checks appends from many goroutines
// interleave into a valid journal (one full line each, dense seqs).
func TestJournalConcurrentAppends(t *testing.T) {
	buf := &syncBuffer{}
	j := NewJournal(buf)
	var wg sync.WaitGroup
	const writers, each = 8, 50
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				_ = j.Append(Event{Kind: EventRepair, Replica: w, Class: i, Chunk: -1})
			}
		}(w)
	}
	wg.Wait()
	events, err := Replay(buf.Reader())
	if err != nil {
		t.Fatal(err)
	}
	appended, seals := 0, 0
	for _, e := range events {
		if e.Kind == EventSeal {
			seals++
		} else {
			appended++
		}
	}
	if appended != writers*each {
		t.Fatalf("replayed %d appended events, want %d", appended, writers*each)
	}
	if seals == 0 {
		t.Fatalf("%d events crossed the default seal batch but no seal was written", appended)
	}
}

func TestJournalTimeStamps(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	now := time.Unix(1700000000, 0)
	j.now = func() time.Time { now = now.Add(time.Millisecond); return now }
	for i := 0; i < 3; i++ {
		if err := j.Append(Event{Kind: EventSweep, Replica: -1, Class: -1, Chunk: -1}); err != nil {
			t.Fatal(err)
		}
	}
	events, err := Replay(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(events); i++ {
		if events[i].UnixNano <= events[i-1].UnixNano {
			t.Fatal("timestamps not increasing")
		}
	}
}

// syncCountWriter records how many times the journal flushed it to
// "stable storage".
type syncCountWriter struct {
	bytes.Buffer
	syncs int
}

func (w *syncCountWriter) Sync() error {
	w.syncs++
	return nil
}

func TestJournalSyncOnAppend(t *testing.T) {
	w := &syncCountWriter{}
	j := NewJournal(w)
	if err := j.Append(Event{Kind: EventSweep, Replica: -1, Class: -1, Chunk: -1}); err != nil {
		t.Fatal(err)
	}
	if w.syncs != 0 {
		t.Fatalf("default journal synced %d times, want 0", w.syncs)
	}
	j.SetSyncOnAppend(true)
	for i := 0; i < 3; i++ {
		if err := j.Append(Event{Kind: EventRepair, Replica: 0, Class: 0, Chunk: i, Bits: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if w.syncs != 3 {
		t.Fatalf("synced journal flushed %d times, want 3", w.syncs)
	}
	// A nil journal accepts the knob as a no-op, like Append.
	var nj *Journal
	nj.SetSyncOnAppend(true)
}

// TestReplayToleratesTruncatedTail is the crash contract: a journal
// whose final line was cut mid-write (SIGKILL between Write and the
// trailing newline landing) replays every full event and reports the
// torn tail, instead of rejecting the acknowledged history.
func TestReplayToleratesTruncatedTail(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	for i := 0; i < 4; i++ {
		if err := j.Append(Event{Kind: EventRepair, Replica: i, Class: 0, Chunk: i, Bits: 2}); err != nil {
			t.Fatal(err)
		}
	}
	full := buf.String()
	lines := strings.SplitAfter(full, "\n")
	if len(lines) < 4 {
		t.Fatalf("expected 4 lines, got %d", len(lines)-1)
	}
	last := lines[3]
	for cut := 1; cut < len(last)-1; cut += 7 {
		torn := strings.Join(lines[:3], "") + last[:cut]
		events, err := Replay(strings.NewReader(torn))
		if !errors.Is(err, ErrTruncatedTail) {
			t.Fatalf("cut %d: err = %v, want ErrTruncatedTail", cut, err)
		}
		if len(events) != 3 {
			t.Fatalf("cut %d: replayed %d events, want 3", cut, len(events))
		}
		for i, e := range events {
			if e.Seq != int64(i)+1 {
				t.Fatalf("cut %d: event %d has seq %d", cut, i, e.Seq)
			}
		}
	}
	// The torn tail is only tolerated at the end: garbage followed by
	// more events is tampering, and yields no timeline at all.
	spliced := lines[0] + "{\"seq\":2,\"t" + "\n" + lines[1]
	if events, err := Replay(strings.NewReader(spliced)); err == nil || errors.Is(err, ErrTruncatedTail) || events != nil {
		t.Fatalf("mid-file garbage tolerated: events=%v err=%v", events, err)
	}
	// An intact journal still replays clean.
	if _, err := Replay(strings.NewReader(full)); err != nil {
		t.Fatal(err)
	}
}

// buildSealedJournal writes n events with the given seal batch into a
// buffer and returns the journal, its raw bytes, and the line offsets
// (byte start of each line) for surgical tampering.
func buildSealedJournal(t *testing.T, n, sealBatch int) (*Journal, []byte) {
	t.Helper()
	var buf bytes.Buffer
	j := NewJournal(&buf)
	j.SetSealBatch(sealBatch)
	now := time.Unix(1700000000, 0)
	j.now = func() time.Time { now = now.Add(time.Millisecond); return now }
	for i := 0; i < n; i++ {
		if err := j.Append(Event{Kind: EventRepair, Replica: i % 3, Class: i % 5, Chunk: i, Bits: i + 1}); err != nil {
			t.Fatal(err)
		}
	}
	return j, buf.Bytes()
}

func TestJournalChainAndSealRoundTrip(t *testing.T) {
	j, raw := buildSealedJournal(t, 23, 4)
	rep, err := Verify(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Seals) == 0 || rep.SealedSeq == 0 {
		t.Fatalf("no seals in report: %+v", rep)
	}
	st := j.Stats()
	if st.SealedSeq != rep.SealedSeq || st.LastRoot != rep.LastRoot {
		t.Fatalf("live stats %+v disagree with replayed report %+v", st, rep)
	}
	events, err := Replay(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(events)) != rep.Events {
		t.Fatalf("replay %d events, verify reports %d", len(events), rep.Events)
	}
	// Seal ranges tile the sealed prefix without gaps.
	wantFrom := int64(1)
	for _, s := range rep.Seals {
		if s.From != wantFrom || s.To < s.From || s.SealSeq != s.To+1 {
			t.Fatalf("seal %+v does not tile (want from %d)", s, wantFrom)
		}
		wantFrom = s.SealSeq
	}
}

func TestJournalProofRoundTrip(t *testing.T) {
	j, _ := buildSealedJournal(t, 40, 8)
	st := j.Stats()
	if st.SealedSeq == 0 {
		t.Fatal("no sealed events")
	}
	for seq := int64(1); seq <= st.SealedSeq; seq++ {
		p, err := j.Proof(seq)
		if err != nil {
			t.Fatalf("seq %d: %v", seq, err)
		}
		if err := p.Verify(); err != nil {
			t.Fatalf("seq %d: %v", seq, err)
		}
		if p.Seq != seq {
			t.Fatalf("proof for seq %d came back for %d", seq, p.Seq)
		}
	}
	// Unsealed tail and out-of-range seqs have no proofs.
	for _, seq := range []int64{0, -3, st.SealedSeq + 5, j.Seq() + 100} {
		if seq > st.SealedSeq || seq < 1 {
			if _, err := j.Proof(seq); err == nil {
				t.Fatalf("seq %d: proof served for unsealed seq", seq)
			}
		}
	}
	// A proof's root matches the anchor when it is from the last batch.
	a, ok := j.Anchor()
	if !ok {
		t.Fatal("no anchor")
	}
	p, err := j.Proof(int64(a.SealedSeq))
	if err != nil {
		t.Fatal(err)
	}
	if p.Root != hexOf(a.Root) {
		t.Fatalf("last-batch proof root %s != anchor root %s", p.Root, hexOf(a.Root))
	}
}

func hexOf(h [32]byte) string {
	const digits = "0123456789abcdef"
	out := make([]byte, 64)
	for i, b := range h {
		out[2*i] = digits[b>>4]
		out[2*i+1] = digits[b&0xf]
	}
	return string(out)
}

// TestReplayRejectsSealedRegionTampering is the adversarial table: a
// sealed journal mutated by bit flips, splices, reorders, duplicated
// seqs, or truncation must not replay clean AND anchor-verify. Edits
// inside the chained prefix are caught by Replay directly; a clean
// suffix truncation replays self-consistently and is caught by the
// anchor check instead — the table asserts the disjunction, which is
// what the restore path enforces.
func TestReplayRejectsSealedRegionTampering(t *testing.T) {
	j, raw := buildSealedJournal(t, 21, 4)
	anchor, ok := j.Anchor()
	if !ok {
		t.Fatal("no anchor")
	}
	// Line boundaries for surgical edits.
	var starts []int
	starts = append(starts, 0)
	for i, b := range raw {
		if b == '\n' && i+1 < len(raw) {
			starts = append(starts, i+1)
		}
	}
	rejected := func(name string, mutated []byte) {
		t.Helper()
		events, err := Replay(bytes.NewReader(mutated))
		if err != nil && !errors.Is(err, ErrTruncatedTail) {
			return // hard rejection by the chain/seal/seq checks
		}
		// Replay accepted (possibly with a torn tail): the anchor check
		// must refuse the lineage.
		rep, verr := Verify(bytes.NewReader(mutated))
		if verr != nil {
			return
		}
		if aerr := rep.CheckAnchor(anchor); aerr == nil {
			t.Fatalf("%s: mutation accepted by both Replay (%d events, err=%v) and anchor check", name, len(events), err)
		}
	}

	// Single-bit flips: every byte of every line in the sealed region.
	sealedEnd := 0
	{
		rep, err := Verify(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		// Byte offset where the last seal's line ends.
		count := int64(0)
		for i, b := range raw {
			if b == '\n' {
				count++
				if count == rep.Seals[len(rep.Seals)-1].SealSeq {
					sealedEnd = i + 1
					break
				}
			}
		}
		if sealedEnd == 0 {
			t.Fatal("could not locate sealed end")
		}
	}
	for off := 0; off < sealedEnd; off += 11 {
		if raw[off] == '\n' {
			continue // flipping a newline is a structural edit, covered below
		}
		mut := append([]byte(nil), raw...)
		mut[off] ^= 1 << (off % 8)
		rejected(fmt.Sprintf("bit flip at byte %d", off), mut)
	}

	lines := bytes.SplitAfter(raw, []byte("\n"))
	lines = lines[:len(lines)-1] // drop empty tail
	join := func(ls [][]byte) []byte { return bytes.Join(ls, nil) }

	// Splice: delete one interior line.
	for del := 1; del < len(lines)-1; del += 3 {
		mut := append(append([][]byte(nil), lines[:del]...), lines[del+1:]...)
		rejected(fmt.Sprintf("splice out line %d", del), join(mut))
	}
	// Reorder: swap adjacent lines.
	for i := 0; i+1 < len(lines); i += 4 {
		mut := append([][]byte(nil), lines...)
		mut[i], mut[i+1] = mut[i+1], mut[i]
		rejected(fmt.Sprintf("reorder lines %d,%d", i, i+1), join(mut))
	}
	// Duplicate seq: repeat a line in place.
	for i := 1; i < len(lines); i += 5 {
		mut := append([][]byte(nil), lines[:i]...)
		mut = append(mut, lines[i-1])
		mut = append(mut, lines[i:]...)
		rejected(fmt.Sprintf("duplicate line %d", i), join(mut))
	}
	// Truncation into the sealed region: cut at every line boundary and
	// at ragged offsets. Clean-boundary cuts replay fine (the chain
	// cannot see the future) — the anchor check must catch them.
	// (sealedEnd-1 would remove only the final newline — exactly the
	// torn-write crash signature, tolerated by contract — so start at
	// sealedEnd-2, the first cut that loses sealed bytes.)
	for cut := sealedEnd - 2; cut > 0; cut -= 13 {
		rejected(fmt.Sprintf("truncate to %d bytes", cut), raw[:cut])
	}
	for l := 1; l < len(starts); l++ {
		if starts[l] >= sealedEnd {
			break
		}
		rejected(fmt.Sprintf("truncate to line boundary %d", l), raw[:starts[l]])
	}

	// The untampered journal passes both checks.
	rep, err := Verify(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.CheckAnchor(anchor); err != nil {
		t.Fatal(err)
	}
}

// TestJournalMonotonicTimestamps is the NTP regression: a wall clock
// that steps backwards between appends must not produce a journal that
// Replay rejects for time order.
func TestJournalMonotonicTimestamps(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	times := []int64{5000, 6000, 4000, 4000, 7000} // NTP step back at #3
	i := 0
	j.now = func() time.Time { tt := time.Unix(0, times[i%len(times)]); i++; return tt }
	for k := 0; k < len(times); k++ {
		if err := j.Append(Event{Kind: EventSweep, Replica: -1, Class: -1, Chunk: -1}); err != nil {
			t.Fatal(err)
		}
	}
	events, err := Replay(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k < len(events); k++ {
		if events[k].UnixNano <= events[k-1].UnixNano {
			t.Fatalf("timestamps not strictly increasing across a clock step: %d then %d",
				events[k-1].UnixNano, events[k].UnixNano)
		}
	}
	// The repaired stamps never run ahead of a sane forward clock.
	if events[4].UnixNano >= 7000+int64(len(times)) {
		t.Fatalf("monotonic repair overshot: %d", events[4].UnixNano)
	}
}

// failNWriter fails every write once armed.
type failNWriter struct {
	bytes.Buffer
	fail bool
}

func (w *failNWriter) Write(p []byte) (int, error) {
	if w.fail {
		return 0, errors.New("sink lost")
	}
	return w.Buffer.Write(p)
}

func TestJournalErrorCounter(t *testing.T) {
	w := &failNWriter{}
	j := NewJournal(w)
	if err := j.Append(Event{Kind: EventSweep, Replica: -1, Class: -1, Chunk: -1}); err != nil {
		t.Fatal(err)
	}
	if j.Errors() != 0 {
		t.Fatalf("errors = %d before any failure", j.Errors())
	}
	w.fail = true
	for i := 0; i < 3; i++ {
		if err := j.Append(Event{Kind: EventSweep, Replica: -1, Class: -1, Chunk: -1}); err == nil {
			t.Fatal("append against a dead sink succeeded")
		}
	}
	if j.Errors() != 3 {
		t.Fatalf("errors = %d, want 3", j.Errors())
	}
	if j.Seq() != 1 {
		t.Fatalf("failed appends consumed seqs: %d", j.Seq())
	}
	w.fail = false
	if err := j.Append(Event{Kind: EventSweep, Replica: -1, Class: -1, Chunk: -1}); err != nil {
		t.Fatal(err)
	}
	if got := j.Stats(); got.Errors != 3 || got.Seq != 2 {
		t.Fatalf("stats after recovery: %+v", got)
	}
	var nj *Journal
	if nj.Errors() != 0 {
		t.Fatal("nil journal reports errors")
	}
}

func TestOpenJournalFileResumesChain(t *testing.T) {
	path := t.TempDir() + "/fleet.journal"
	j1, resumed, err := OpenJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if resumed != 0 {
		t.Fatalf("fresh journal resumed at %d", resumed)
	}
	j1.SetSealBatch(3)
	for i := 0; i < 7; i++ {
		if err := j1.Append(Event{Kind: EventRepair, Replica: 0, Class: 0, Chunk: i, Bits: 1}); err != nil {
			t.Fatal(err)
		}
	}
	seqBefore := j1.Seq()
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the chain continues where it left off.
	j2, resumed, err := OpenJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if resumed <= seqBefore-1 {
		t.Fatalf("resumed at %d, wrote through at least %d", resumed, seqBefore)
	}
	j2.SetSealBatch(3)
	for i := 0; i < 4; i++ {
		if err := j2.Append(Event{Kind: EventRepair, Replica: 1, Class: 1, Chunk: i, Bits: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := j2.VerifyFile(); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Verify(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("reopened journal does not verify end-to-end: %v", err)
	}
	if len(rep.Seals) < 2 {
		t.Fatalf("resumed journal lost seals: %+v", rep)
	}
}

func TestOpenJournalFileTruncatesTornTail(t *testing.T) {
	path := t.TempDir() + "/fleet.journal"
	j1, _, err := OpenJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	j1.SetSealBatch(0)
	for i := 0; i < 5; i++ {
		if err := j1.Append(Event{Kind: EventRepair, Replica: 0, Class: 0, Chunk: i, Bits: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}
	closedSeq := j1.Seq() // Close sealed the tail, adding one seal event
	// Simulate SIGKILL mid-append: a torn final line.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":7,"t":99,"kind":"swee`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, resumed, err := OpenJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if resumed != closedSeq {
		t.Fatalf("resumed at %d, want %d (torn line dropped)", resumed, closedSeq)
	}
	if err := j2.Append(Event{Kind: EventSweep, Replica: -1, Class: -1, Chunk: -1}); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(bytes.NewReader(data)); err != nil {
		t.Fatalf("journal after torn-tail recovery does not verify: %v", err)
	}

	// A tampered (not torn) file refuses to open: appending to a forged
	// history would launder it.
	data[20] ^= 1
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenJournalFile(path); err == nil {
		t.Fatal("tampered journal opened for append")
	}
}

func TestVerifyFileDetectsOutOfBandTampering(t *testing.T) {
	path := t.TempDir() + "/fleet.journal"
	j, _, err := OpenJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	j.SetSealBatch(2)
	for i := 0; i < 6; i++ {
		if err := j.Append(Event{Kind: EventRepair, Replica: 0, Class: 0, Chunk: i, Bits: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := j.VerifyFile(); err != nil {
		t.Fatalf("clean file fails verification: %v", err)
	}
	// Tamper behind the running journal's back.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Suffix truncation at a line boundary — invisible to pure replay.
	cut := bytes.LastIndexByte(data[:len(data)-1], '\n') + 1
	if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := j.VerifyFile(); err == nil {
		t.Fatal("suffix truncation not detected by VerifyFile")
	}
	// Bit flip in place.
	mut := append([]byte(nil), data...)
	mut[10] ^= 4
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := j.VerifyFile(); err == nil {
		t.Fatal("bit flip not detected by VerifyFile")
	}
	// Restore the true bytes: verification passes again.
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := j.VerifyFile(); err != nil {
		t.Fatalf("restored file fails verification: %v", err)
	}
}

func TestJournalAnchorVerify(t *testing.T) {
	j, _ := buildSealedJournal(t, 10, 4)
	a, ok := j.Anchor()
	if !ok {
		t.Fatal("no anchor after seals")
	}
	if err := j.VerifyAnchor(a); err != nil {
		t.Fatal(err)
	}
	// Foreign root at a known sealed seq.
	bad := a
	bad.Root[0] ^= 1
	if err := j.VerifyAnchor(bad); err == nil {
		t.Fatal("anchor with a foreign root verified")
	}
	// Sealed seq this journal never sealed.
	bad = a
	bad.SealedSeq += 1000
	if err := j.VerifyAnchor(bad); err == nil {
		t.Fatal("anchor beyond sealed history verified")
	}
	// A journal with no seals anchors nothing.
	j2 := NewJournal(&bytes.Buffer{})
	if _, ok := j2.Anchor(); ok {
		t.Fatal("sealless journal produced an anchor")
	}
	var nj *Journal
	if _, ok := nj.Anchor(); ok {
		t.Fatal("nil journal produced an anchor")
	}
}

func TestSealNowAndClose(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	j.SetSealBatch(0) // automatic sealing off
	for i := 0; i < 5; i++ {
		if err := j.Append(Event{Kind: EventRepair, Replica: 0, Class: 0, Chunk: i, Bits: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if st := j.Stats(); st.SealedSeq != 0 {
		t.Fatalf("sealed %d with auto-seal off", st.SealedSeq)
	}
	if err := j.SealNow(); err != nil {
		t.Fatal(err)
	}
	st := j.Stats()
	if st.SealedSeq != 5 || st.Seals != 1 {
		t.Fatalf("after SealNow: %+v", st)
	}
	// Idempotent with nothing new.
	if err := j.SealNow(); err != nil {
		t.Fatal(err)
	}
	if st2 := j.Stats(); st2.Seals != 1 {
		t.Fatalf("empty SealNow wrote a seal: %+v", st2)
	}
	// Close seals the tail.
	if err := j.Append(Event{Kind: EventSweep, Replica: -1, Class: -1, Chunk: -1}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if st3 := j.Stats(); st3.Seals != 2 || st3.SealedSeq != 7 {
		t.Fatalf("after Close: %+v", st3)
	}
	rep, err := Verify(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if rep.SealedSeq != 7 {
		t.Fatalf("replayed sealed seq %d, want 7", rep.SealedSeq)
	}
}

// TestJournalModelTag pins the multi-tenancy contract: untagged lines
// keep the pre-tenancy byte format (no "model" key at all), and a
// mixed-tag chain replays intact with each line's tag as written.
func TestJournalModelTag(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)

	// Untagged journal: the line must not mention a model at all —
	// byte-identical to what a pre-tenancy process wrote.
	if err := j.Append(Event{Kind: EventSweep, Replica: -1, Class: -1, Chunk: -1}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `"model"`) {
		t.Fatalf("untagged journal line carries a model key: %s", buf.String())
	}

	// Tagged at the source, then untagged again mid-stream.
	if err := j.Append(Event{Kind: EventRepair, Replica: 0, Class: 1, Chunk: 2, Bits: 64, Model: "pamap"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Event{Kind: EventQuarantine, Replica: 1, Class: -1, Chunk: -1, Model: "isolet"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Event{Kind: EventActivate, Replica: 1, Class: -1, Chunk: -1}); err != nil {
		t.Fatal(err)
	}

	events, err := Replay(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 4 {
		t.Fatalf("replayed %d events, want 4", len(events))
	}
	wantModels := []string{"", "pamap", "isolet", ""}
	for i, e := range events {
		if e.Model != wantModels[i] {
			t.Fatalf("event %d model %q, want %q", i, e.Model, wantModels[i])
		}
	}
}
