package serve

import (
	"bytes"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/attack"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fleet"
)

// journaledServer starts a server whose journal is backed by a real
// file in a temp dir, so tests can tamper with it out of band.
func journaledServer(t *testing.T) (*Server, *httptest.Server, *fleet.Journal, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "serve.journal")
	j, resumed, err := fleet.OpenJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if resumed != 0 {
		t.Fatalf("fresh journal resumed at %d", resumed)
	}
	t.Cleanup(func() { j.Close() })

	ds, spec, _ := problem(t)
	sys, err := core.Train(ds.TrainX, ds.TrainY, spec.Classes, core.Config{
		Dimensions: 4096,
		Seed:       7,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(sys, Config{DisableRecovery: true, Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts, j, path
}

// sealSome appends n events to the journal and seals, so the server
// has an anchored lineage to serve proofs and stamp snapshots from.
func sealSome(t *testing.T, j *fleet.Journal, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := j.Append(fleet.Event{Kind: fleet.EventRepair, Replica: i % 3, Class: 1, Chunk: i, Bits: 8}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.SealNow(); err != nil {
		t.Fatal(err)
	}
}

func TestJournalEndpointsServeProofAndVerify(t *testing.T) {
	_, ts, j, _ := journaledServer(t)
	sealSome(t, j, 9)

	var jv cluster.JournalVerifyResponse
	if resp := getJSON(t, ts.URL+"/journal/verify", &jv); resp.StatusCode != http.StatusOK {
		t.Fatalf("/journal/verify status %d", resp.StatusCode)
	}
	if !jv.Enabled || !jv.OK {
		t.Fatalf("verify = %+v, want enabled and ok", jv)
	}
	if jv.Report == nil || jv.Report.SealedSeq == 0 {
		t.Fatalf("verify report missing seals: %+v", jv.Report)
	}

	var p fleet.InclusionProof
	if resp := getJSON(t, ts.URL+"/journal/proof?seq=5", &p); resp.StatusCode != http.StatusOK {
		t.Fatalf("/journal/proof status %d", resp.StatusCode)
	}
	if err := p.Verify(); err != nil {
		t.Fatalf("served proof does not verify: %v", err)
	}
	if p.Seq != 5 {
		t.Fatalf("proof for seq %d, want 5", p.Seq)
	}

	// Unsealed / out-of-range seqs are a 404, not a 500.
	if resp := getJSON(t, ts.URL+"/journal/proof?seq=999999", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("out-of-range proof status %d, want 404", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/journal/proof?seq=abc", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed seq status %d, want 400", resp.StatusCode)
	}
}

func TestJournalEndpointsWithoutJournal(t *testing.T) {
	_, ts, _ := freshServer(t, Config{DisableRecovery: true})
	var jv cluster.JournalVerifyResponse
	if resp := getJSON(t, ts.URL+"/journal/verify", &jv); resp.StatusCode != http.StatusOK {
		t.Fatalf("/journal/verify status %d", resp.StatusCode)
	}
	if jv.Enabled {
		t.Fatal("journal-less server reports an enabled journal")
	}
	if resp := getJSON(t, ts.URL+"/journal/proof?seq=1", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("proof without journal status %d, want 400", resp.StatusCode)
	}
}

func TestSnapshotCarriesAnchorAndRestoreVerifiesIt(t *testing.T) {
	_, ts, j, _ := journaledServer(t)
	sealSome(t, j, 6)

	resp, err := http.Get(ts.URL + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: status %d err %v", resp.StatusCode, err)
	}
	_, _, anchor, err := core.LoadAnchored(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	if anchor == nil {
		t.Fatal("snapshot from a sealed journal carries no anchor")
	}
	if want, ok := j.Anchor(); !ok || *anchor != want {
		t.Fatalf("snapshot anchor %+v, want %+v", anchor, want)
	}

	// Restoring the server's own snapshot verifies against its own
	// journal and succeeds.
	rresp, body := postRaw(t, ts.URL+"/restore", snap)
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("restore own snapshot: status %d: %s", rresp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte("journal_anchor_seq")) {
		t.Fatalf("restore response lacks journal_anchor_seq: %s", body)
	}
}

func TestRestoreRefusesForeignAnchor(t *testing.T) {
	srv, ts, j, _ := journaledServer(t)
	sealSome(t, j, 6)

	// Build a snapshot anchored to a DIFFERENT journal's lineage.
	foreign := fleet.NewJournal(io.Discard)
	for i := 0; i < 6; i++ {
		if err := foreign.Append(fleet.Event{Kind: fleet.EventQuarantine, Replica: -1, Class: -1, Chunk: -1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := foreign.SealNow(); err != nil {
		t.Fatal(err)
	}
	fa, ok := foreign.Anchor()
	if !ok {
		t.Fatal("foreign journal has no anchor after seal")
	}
	var buf bytes.Buffer
	if err := srv.system().SaveAnchored(&buf, 0.99, &fa); err != nil {
		t.Fatal(err)
	}
	resp, body := postRaw(t, ts.URL+"/restore", buf.Bytes())
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("foreign-anchored restore: status %d (%s), want 400", resp.StatusCode, body)
	}

	// An unanchored snapshot carries no lineage claim and still
	// restores.
	buf.Reset()
	if err := srv.system().SaveAnchored(&buf, 0.99, nil); err != nil {
		t.Fatal(err)
	}
	if resp, body := postRaw(t, ts.URL+"/restore", buf.Bytes()); resp.StatusCode != http.StatusOK {
		t.Fatalf("unanchored restore: status %d: %s", resp.StatusCode, body)
	}
}

func TestJournalVerifyDetectsOutOfBandTamper(t *testing.T) {
	_, ts, j, path := journaledServer(t)
	sealSome(t, j, 8)

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload bit in the middle of the sealed region.
	mut := append([]byte(nil), raw...)
	for i := len(mut) / 2; ; i++ {
		if mut[i] != '\n' && mut[i]^0x01 != '\n' {
			mut[i] ^= 0x01
			break
		}
	}
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	var jv cluster.JournalVerifyResponse
	getJSON(t, ts.URL+"/journal/verify", &jv)
	if !jv.Enabled || jv.OK {
		t.Fatalf("verify after tamper = %+v, want enabled and not ok", jv)
	}
	if jv.Error == "" {
		t.Fatal("tampered verify carries no error detail")
	}

	// Restore the original bytes: verification recovers.
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	getJSON(t, ts.URL+"/journal/verify", &jv)
	if !jv.OK {
		t.Fatalf("verify after restore = %+v, want ok", jv)
	}
}

func TestMetricsCarryJournalStats(t *testing.T) {
	_, ts, j, _ := journaledServer(t)
	sealSome(t, j, 5)

	var m Metrics
	getJSON(t, ts.URL+"/metrics", &m)
	if m.Journal == nil {
		t.Fatal("metrics lack the journal section")
	}
	if m.Journal.Seq == 0 || m.Journal.SealedSeq == 0 || m.Journal.Seals == 0 {
		t.Fatalf("journal stats = %+v, want non-zero seq/sealed/seals", m.Journal)
	}
	if m.Journal.Errors != 0 {
		t.Fatalf("journal errors = %d, want 0", m.Journal.Errors)
	}
}

// TestWatchdogRollbackRefusesUnverifiedCheckpoint drives the watchdog
// into its rollback tier over a held checkpoint that fails one of the
// admission rules: a flipped payload byte (CRC), an anchor to a
// foreign journal, a stamp below the checkpoint floor, or no stamp at
// all. Each is dropped — RolledBack false, the checkpoint gone — and
// the live model keeps its image. The checkpoint image is a corrupted
// fork of the live model, so a wrongful rollback would show; the same
// image stamped and anchored to the server's own journal does roll
// back.
func TestWatchdogRollbackRefusesUnverifiedCheckpoint(t *testing.T) {
	srv, _, j, _ := journaledServer(t)
	sealSome(t, j, 6)
	ds, _, _ := problem(t)
	if err := srv.SetProbe(ds.TestX, ds.TestY); err != nil {
		t.Fatal(err)
	}
	donor := srv.system().Fork()
	if _, err := attack.Random(donor.AttackImage(), 0.05, rand.New(rand.NewPCG(5, 6))); err != nil {
		t.Fatal(err)
	}
	own, ok := j.Anchor()
	if !ok {
		t.Fatal("journal has no anchor after seal")
	}
	foreign := fleet.NewJournal(io.Discard)
	sealSome(t, foreign, 6)
	fa, _ := foreign.Anchor()
	image := func(stamp float64, anchor *core.JournalAnchor) []byte {
		var buf bytes.Buffer
		if err := donor.SaveAnchored(&buf, stamp, anchor); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	flipped := image(0.99, &own)
	flipped[len(flipped)/2] ^= 0x10
	live := func() []byte {
		var buf bytes.Buffer
		if err := srv.live.Load().save(&buf, math.NaN(), nil); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	// rollbackWindow holds payload as the checkpoint, one unhealthy
	// window short of the rollback trip at tier 1; its impossible
	// accuracy makes the next window unhealthy.
	rollbackWindow := func(payload []byte) WatchdogReport {
		srv.wd.mu.Lock()
		srv.wd.tier, srv.wd.badStreak = 1, tripWindows-1
		srv.wd.cp = &checkpoint{payload: payload, accuracy: 2}
		srv.wd.mu.Unlock()
		return srv.WatchdogNow()
	}
	before := live()
	for _, tc := range []struct {
		name    string
		payload []byte
	}{
		{"flipped payload byte", flipped},
		{"foreign journal anchor", image(0.99, &fa)},
		{"stamp below the floor", image(0.1, &own)},
		{"unstamped", image(math.NaN(), &own)},
	} {
		rep := rollbackWindow(tc.payload)
		if !rep.Unhealthy || rep.RolledBack {
			t.Errorf("%s: window %+v, want unhealthy and not rolled back", tc.name, rep)
		}
		if srv.wd.cp != nil {
			t.Errorf("%s: refused checkpoint still held", tc.name)
		}
		if !bytes.Equal(live(), before) {
			t.Fatalf("%s: refused rollback changed the live model", tc.name)
		}
	}
	if rep := rollbackWindow(image(0.99, &own)); !rep.RolledBack {
		t.Fatalf("verified checkpoint: window %+v, want a rollback", rep)
	}
	if bytes.Equal(live(), before) {
		t.Fatal("verified rollback left the live model unchanged")
	}
}
