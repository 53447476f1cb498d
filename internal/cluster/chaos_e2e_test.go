package cluster_test

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/fleet"
)

// nodeProc is one real `servehd -node` OS process under test control.
type nodeProc struct {
	cmd *exec.Cmd
	url string
}

// startNodeProc launches the built servehd binary as a cluster node
// and blocks until it announces its listen address — with -addr :0
// the kernel picks the port, and the announce line carries it.
func startNodeProc(t *testing.T, bin, model, addr string, extra ...string) *nodeProc {
	t.Helper()
	args := append([]string{"-node", "-norecover", "-load", model, "-addr", addr}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
	})

	lineCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "servehd listening on ") {
				lineCh <- strings.TrimPrefix(line, "servehd listening on ")
				break
			}
		}
		// Keep draining so the child never blocks on a full pipe.
		for sc.Scan() {
		}
	}()
	select {
	case hostport := <-lineCh:
		return &nodeProc{cmd: cmd, url: "http://" + hostport}
	case <-time.After(30 * time.Second):
		t.Fatal("node process never announced its listen address")
		return nil
	}
}

// kill SIGKILLs the node — no drain, no goodbye, the process-death
// fault the in-process fleet cannot express.
func (p *nodeProc) kill(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_, _ = p.cmd.Process.Wait()
}

// TestChaosDrillKillRestartReseed is the tentpole's end-to-end gate,
// run against real servehd processes:
//
//  1. three -node processes start from one checkpoint; the in-test
//     coordinator quorum-votes over them and a clean sweep arms the
//     fast path;
//  2. one node is SIGKILLed mid-traffic — every quorum answer stays
//     correct while the failure ladder parks the corpse Down;
//  3. the node restarts on the same port and is immediately hit with
//     a heavy bit-flip attack — the next sweep probes it back into
//     rotation, measures its divergence, quarantines it, and
//     re-seeds it from the most-agreeing donor over HTTP;
//  4. the following sweep proves the cluster clean again, and the
//     synced journal replays the whole story — including through a
//     simulated torn final write.
func TestChaosDrillKillRestartReseed(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs real servehd processes")
	}
	ds, sys := problem(t)
	dir := t.TempDir()

	bin := filepath.Join(dir, "servehd")
	build := exec.Command("go", "build", "-o", bin, "repro/cmd/servehd")
	build.Dir = repoRoot(t)
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build servehd: %v\n%s", err, out)
	}

	model := filepath.Join(dir, "model.rhd")
	if err := os.WriteFile(model, snapshotOf(t, sys), 0o644); err != nil {
		t.Fatal(err)
	}

	// Every node keeps its own synced, seal-every-event journal: the
	// SIGKILL below must leave node 1 a chain that still verifies after
	// the process is restarted onto the same file.
	procs := make([]*nodeProc, 3)
	urls := make([]string, 3)
	nodeJournals := make([]string, 3)
	nodeArgs := make([][]string, 3)
	for i := range procs {
		nodeJournals[i] = filepath.Join(dir, fmt.Sprintf("node%d.journal", i))
		nodeArgs[i] = []string{"-journal", nodeJournals[i], "-journal-sync", "-journal-seal", "1"}
		procs[i] = startNodeProc(t, bin, model, "127.0.0.1:0", nodeArgs[i]...)
		urls[i] = procs[i].url
	}

	journalPath := filepath.Join(dir, "coordinator.journal")
	journal, resumed, err := fleet.OpenJournalFile(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	if resumed != 0 {
		t.Fatalf("fresh coordinator journal resumed at %d", resumed)
	}
	defer journal.Close()
	journal.SetSyncOnAppend(true)
	journal.SetSealBatch(4)

	co := newCoordinator(t, cluster.Config{
		Nodes:         urls,
		Quorum:        2,
		Timeout:       2 * time.Second,
		Retries:       -1,
		Backoff:       time.Millisecond,
		FailThreshold: 2,
		RejoinProbes:  1,
		Journal:       journal,
	})
	want := expected(sys, ds.TestX[:120])
	score := func(step string, lo, n int) {
		t.Helper()
		classes, _, err := co.ScoreBatch(ds.TestX[lo : lo+n])
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		assertClasses(t, step, classes, want[lo:lo+n])
	}

	// Phase 1: pristine cluster, clean sweep, fast path armed.
	score("pristine", 0, 16)
	rep, err := co.SweepNow()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Healthy || !co.Healthy() {
		t.Fatalf("clean sweep over pristine processes: report %+v, healthy %v", rep, co.Healthy())
	}
	score("fast path", 16, 16)

	// Phase 1b: a light corruption on node 1, swept and repaired, so
	// node 1's journal holds sealed pre-kill events — the SIGKILL must
	// not cost them.
	lightBody, _ := json.Marshal(map[string]any{"kind": "random", "rate": 0.01, "seed": 99})
	if _, err := co.Attack(1, lightBody); err != nil {
		t.Fatalf("light attack on node 1: %v", err)
	}
	rep, err = co.SweepNow()
	if err != nil {
		t.Fatal(err)
	}
	if rep.RepairedChunks == 0 {
		t.Fatalf("light-corruption sweep repaired nothing: %+v", rep)
	}
	if len(rep.Quarantined) != 0 {
		t.Fatalf("light corruption quarantined %v, want in-place repair", rep.Quarantined)
	}
	rep, err = co.SweepNow()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Healthy {
		t.Fatalf("post-repair sweep not clean: %+v", rep)
	}
	score("repaired", 32, 16)

	// Phase 2: SIGKILL node 1 under concurrent traffic. Every answer
	// during and after the kill must stay correct — the fast path falls
	// to quorum over the survivors, and the ladder parks the corpse.
	var wg sync.WaitGroup
	results := make([]error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 6; round++ {
				lo := (g*6 + round) * 4 % 96
				classes, _, err := co.ScoreBatch(ds.TestX[lo : lo+4])
				if err != nil {
					results[g] = fmt.Errorf("round %d: %w", round, err)
					return
				}
				for i := range classes {
					if classes[i] != want[lo+i] {
						results[g] = fmt.Errorf("round %d query %d: answered %d, want %d", round, i, classes[i], want[lo+i])
						return
					}
				}
			}
		}(g)
	}
	time.Sleep(10 * time.Millisecond) // let traffic start flowing
	procs[1].kill(t)
	wg.Wait()
	for g, err := range results {
		if err != nil {
			t.Fatalf("traffic goroutine %d: %v", g, err)
		}
	}
	// Push the ladder over its threshold: batches keep answering from
	// the survivors while the dead member fails its exchanges.
	for round := 0; round < 4; round++ {
		score("degraded", round*8, 8)
	}
	if st := co.Status(); st.Nodes[1].State != "down" {
		t.Fatalf("killed node state %q, want down (status %+v)", st.Nodes[1].State, st)
	}

	// Phase 3: restart on the same port, then corrupt the fresh process
	// heavily. The sweep must rejoin it, catch the divergence, and
	// re-seed it from a donor — all over the wire.
	addr := strings.TrimPrefix(procs[1].url, "http://")
	procs[1] = startNodeProc(t, bin, model, addr, nodeArgs[1]...)
	if procs[1].url != "http://"+addr {
		t.Fatalf("restart landed on %s, want %s", procs[1].url, "http://"+addr)
	}
	body, _ := json.Marshal(map[string]any{"kind": "random", "rate": 0.30, "seed": 4242})
	if _, err := co.Attack(1, body); err != nil {
		t.Fatalf("attack on restarted node: %v", err)
	}
	rep, err = co.SweepNow()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Quarantined) != 1 || rep.Quarantined[0] != 1 {
		t.Fatalf("sweep quarantined %v, want [1] (report %+v)", rep.Quarantined, rep)
	}
	if len(rep.Reseeded) != 1 || rep.Reseeded[0] != 1 {
		t.Fatalf("sweep reseeded %v, want [1]", rep.Reseeded)
	}
	if st := co.Status(); st.Nodes[1].Rejoins != 1 {
		t.Fatalf("restarted node rejoins = %d, want 1", st.Nodes[1].Rejoins)
	}

	// Phase 4: the next sweep proves the re-seeded cluster clean and
	// re-arms the fast path; answers are correct end to end.
	rep, err = co.SweepNow()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Healthy || rep.DivergentBits != 0 || !co.Healthy() {
		t.Fatalf("post-reseed sweep not clean: %+v, healthy %v", rep, co.Healthy())
	}
	score("healed", 96, 16)

	// Node 1's own journal survived the SIGKILL: one verified hash
	// chain spanning both process lifetimes, with the pre-kill repairs
	// and the post-restart reseed sealed under Merkle roots.
	nrep, err := fleet.Verify(mustOpen(t, nodeJournals[1]))
	if err != nil && !errors.Is(err, fleet.ErrTruncatedTail) {
		t.Fatalf("node 1 journal does not verify across the kill: %v", err)
	}
	if nrep.SealedSeq == 0 {
		t.Fatalf("node 1 journal sealed=%d, want a sealed chain", nrep.SealedSeq)
	}
	sawRepair, sawReseed := false, false
	for _, e := range replayEvents(t, nodeJournals[1]) {
		switch e.Kind {
		case fleet.EventRepair:
			sawRepair = true
		case fleet.EventReseed:
			sawReseed = true
		}
	}
	if !sawRepair || !sawReseed {
		t.Fatalf("node 1 journal repair=%v reseed=%v, want both sides of the kill", sawRepair, sawReseed)
	}
	// The restarted process re-verifies its own file on demand and
	// serves an inclusion proof for a pre-kill event.
	var jv cluster.JournalVerifyResponse
	httpGetJSON(t, procs[1].url+"/journal/verify", &jv)
	if !jv.Enabled || !jv.OK {
		t.Fatalf("node 1 /journal/verify = %+v, want enabled and ok", jv)
	}
	var proof fleet.InclusionProof
	httpGetJSON(t, procs[1].url+"/journal/proof?seq=1", &proof)
	if err := proof.Verify(); err != nil {
		t.Fatalf("node 1 proof for seq 1: %v", err)
	}

	// The coordinator's journal seals its unsealed tail on demand and
	// proves inclusion of any sealed event.
	if err := journal.SealNow(); err != nil {
		t.Fatal(err)
	}
	a, ok := journal.Anchor()
	if !ok {
		t.Fatal("coordinator journal has no anchor after SealNow")
	}
	cproof, err := journal.Proof(int64(a.SealedSeq))
	if err != nil {
		t.Fatal(err)
	}
	if err := cproof.Verify(); err != nil {
		t.Fatalf("coordinator proof: %v", err)
	}
	if vrep, err := journal.VerifyFile(); err != nil {
		t.Fatalf("coordinator journal file does not verify: %v (report %+v)", err, vrep)
	}

	// The synced journal tells the whole story in order: node down,
	// rejoin, quarantine, reseed, re-activation.
	events, err := fleet.Replay(mustOpen(t, journalPath))
	if err != nil {
		t.Fatalf("replay synced journal: %v", err)
	}
	for _, kind := range []string{fleet.EventWatchdog, fleet.EventActivate, fleet.EventQuarantine, fleet.EventReseed, fleet.EventSweep} {
		found := false
		for _, e := range events {
			if e.Kind == kind {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("journal missing %q event (got %d events)", kind, len(events))
		}
	}

	// A torn final write — the crash the per-event fsync bounds — must
	// cost exactly the torn line, never the drill's history.
	f, err := os.OpenFile(journalPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":9999,"kind":"swe`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	torn, err := fleet.Replay(mustOpen(t, journalPath))
	if !errors.Is(err, fleet.ErrTruncatedTail) {
		t.Fatalf("torn journal replay error = %v, want ErrTruncatedTail", err)
	}
	if len(torn) != len(events) {
		t.Fatalf("torn replay kept %d events, want the %d intact ones", len(torn), len(events))
	}
}

// replayEvents replays a journal file, tolerating only the torn final
// line a SIGKILL may leave.
func replayEvents(t *testing.T, path string) []fleet.Event {
	t.Helper()
	events, err := fleet.Replay(mustOpen(t, path))
	if err != nil && !errors.Is(err, fleet.ErrTruncatedTail) {
		t.Fatalf("replay %s: %v", path, err)
	}
	return events
}

// httpGetJSON fetches and decodes a JSON document from a live node.
func httpGetJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
}

func mustOpen(t *testing.T, path string) *os.File {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// repoRoot walks up from the package directory to the module root so
// the in-test `go build` resolves the main package.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above the test directory")
		}
		dir = parent
	}
}
