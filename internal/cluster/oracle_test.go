package cluster_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fleet"
)

// TestOracleBitIdentity is the cluster's acceptance gate: under the
// same event sequence — score batches, replica-targeted attack drills,
// anti-entropy sweeps, a quarantine/reseed cycle — the networked
// coordinator must produce bit-identical answers to the in-process
// fleet, sweep report for sweep report and confidence for confidence,
// and leave every node's model bit-identical to the corresponding
// fleet replica.
func TestOracleBitIdentity(t *testing.T) {
	ds, sys := problem(t)
	snap := snapshotOf(t, sys)

	flt, err := fleet.New(sys, fleet.Config{
		Replicas:        3,
		Quorum:          2,
		Seed:            7,
		DisableRecovery: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer flt.Close()

	urls := startNodes(t, snap, 3)
	co := newCoordinator(t, cluster.Config{Nodes: urls, Quorum: 2})

	compareBatch := func(step string, xs [][]float64) {
		t.Helper()
		encoded := sys.EncodeAllParallel(xs, 0)
		fc, ff, err := flt.ScoreBatch(encoded)
		if err != nil {
			t.Fatalf("%s: fleet: %v", step, err)
		}
		cc, cf, err := co.ScoreBatch(xs)
		if err != nil {
			t.Fatalf("%s: coordinator: %v", step, err)
		}
		if !reflect.DeepEqual(fc, cc) {
			t.Fatalf("%s: classes diverge\nfleet:   %v\ncluster: %v", step, fc, cc)
		}
		// Confidences must match bit for bit: the score frame carries
		// float64 as its IEEE-754 bits, and the decision code is shared.
		if !reflect.DeepEqual(ff, cf) {
			t.Fatalf("%s: confidences diverge\nfleet:   %v\ncluster: %v", step, ff, cf)
		}
	}

	compareSweep := func(step string) {
		t.Helper()
		frep := flt.SweepNow()
		crep, err := co.SweepNow()
		if err != nil {
			t.Fatalf("%s: coordinator sweep: %v", step, err)
		}
		if !reflect.DeepEqual(frep, crep) {
			t.Fatalf("%s: sweep reports diverge\nfleet:   %+v\ncluster: %+v", step, frep, crep)
		}
		if flt.Healthy() != co.Healthy() {
			t.Fatalf("%s: healthy diverges: fleet %v, cluster %v", step, flt.Healthy(), co.Healthy())
		}
	}

	attackBoth := func(step string, id int, kind string, rate float64, seed uint64) {
		t.Helper()
		var fleetBits int
		if err := flt.WithReplica(id, func(target *core.System) error {
			drill := target.AttackRandom
			if kind == "targeted" {
				drill = target.AttackTargeted
			}
			res, err := drill(rate, seed)
			fleetBits = res.BitsFlipped
			return err
		}); err != nil {
			t.Fatalf("%s: fleet attack: %v", step, err)
		}
		body, _ := json.Marshal(map[string]any{"kind": kind, "rate": rate, "seed": seed})
		resp, err := co.Attack(id, body)
		if err != nil {
			t.Fatalf("%s: coordinator attack: %v", step, err)
		}
		var out struct {
			BitsFlipped int `json:"bits_flipped"`
		}
		if err := json.Unmarshal(resp, &out); err != nil {
			t.Fatalf("%s: attack response: %v", step, err)
		}
		// Identical model state + identical (kind, rate, seed) must
		// flip identical bits on both sides.
		if out.BitsFlipped != fleetBits {
			t.Fatalf("%s: attack flipped %d bits on the node, %d on the fleet replica", step, out.BitsFlipped, fleetBits)
		}
	}

	batch := ds.TestX[:24]

	// Pristine: fleet is on its fast path, the coordinator still votes
	// (it arms only after a proven-clean sweep) — answers equal anyway.
	compareBatch("pristine", batch)
	compareSweep("first sweep")
	if !co.Healthy() {
		t.Fatal("clean sweep did not arm the coordinator fast path")
	}
	compareBatch("both fast paths", ds.TestX[24:48])

	// Light damage on member 1: below the quarantine threshold, so the
	// next sweep chunk-repairs it on both sides.
	attackBoth("light attack", 1, "targeted", 0.02, 99)
	compareBatch("quorum under divergence", ds.TestX[48:72])
	compareSweep("repair sweep")
	compareBatch("after repair", ds.TestX[:24])
	compareSweep("clean sweep re-arms")
	if !flt.Healthy() || !co.Healthy() {
		t.Fatal("clean sweep after repair left a fast path down")
	}

	// Heavy damage on member 2: past the quarantine threshold, so the
	// sweep quarantines it and re-seeds from the most-agreeing donor.
	attackBoth("heavy attack", 2, "random", 0.30, 1234)
	compareBatch("quorum around the wreck", ds.TestX[24:48])
	compareSweep("quarantine sweep")
	if got := flt.Status().Quarantines; got != 1 {
		t.Fatalf("fleet quarantines = %d, want 1", got)
	}
	if got := co.Status().Quarantines; got != 1 {
		t.Fatalf("cluster quarantines = %d, want 1", got)
	}
	compareSweep("post-reseed sweep")
	compareBatch("healed", ds.TestX[48:72])

	// Final gate: every node's deployed model must be bit-identical to
	// its fleet counterpart — compared through the same chunk hashes
	// anti-entropy uses, at full resolution.
	for id, url := range urls {
		var nodeSum struct {
			Hashes [][]string `json:"hashes"`
		}
		resp, err := http.Get(url + "/node/summary?chunks=256")
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&nodeSum); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		var fltSum [][]string
		if err := flt.WithReplica(id, func(target *core.System) error {
			m := target.Model()
			fltSum = make([][]string, target.Classes())
			for c := range fltSum {
				row := make([]string, 256)
				cv := m.ClassVector(c)
				for k := range row {
					lo, hi := fleet.ChunkBounds(target.Dimensions(), 256, k)
					row[k] = fmt.Sprintf("%016x", fleet.ChunkHash(cv, lo, hi))
				}
				fltSum[c] = row
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(nodeSum.Hashes, fltSum) {
			t.Fatalf("node %d model diverges from fleet replica %d after identical event sequences", id, id)
		}
	}
}

// TestOracleCursorLockstep verifies member rotation stays aligned over
// many batches: with one member corrupted and quorum 2, every batch's
// answer depends on which members were picked, so any cursor drift
// between the dispatchers shows up as a vote mismatch within a few
// rounds.
func TestOracleCursorLockstep(t *testing.T) {
	ds, sys := problem(t)
	snap := snapshotOf(t, sys)

	flt, err := fleet.New(sys, fleet.Config{Replicas: 3, Quorum: 2, Seed: 7, DisableRecovery: true})
	if err != nil {
		t.Fatal(err)
	}
	defer flt.Close()
	urls := startNodes(t, snap, 3)
	co := newCoordinator(t, cluster.Config{Nodes: urls, Quorum: 2})

	// Corrupt member 0 heavily on both sides and never sweep: every
	// batch must agree despite rotating through a polluted voter.
	if err := flt.WithReplica(0, func(target *core.System) error {
		_, err := target.AttackRandom(0.25, 5)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(map[string]any{"kind": "random", "rate": 0.25, "seed": 5})
	if _, err := co.Attack(0, body); err != nil {
		t.Fatal(err)
	}

	for round := 0; round < 12; round++ {
		lo := (round * 8) % 120
		xs := ds.TestX[lo : lo+8]
		encoded := sys.EncodeAllParallel(xs, 0)
		fc, ff, err := flt.ScoreBatch(encoded)
		if err != nil {
			t.Fatal(err)
		}
		cc, cf, err := co.ScoreBatch(xs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fc, cc) || !reflect.DeepEqual(ff, cf) {
			t.Fatalf("round %d: answers diverge\nfleet:   %v %v\ncluster: %v %v", round, fc, ff, cc, cf)
		}
	}
	st := co.Status()
	if st.Escalations == 0 {
		t.Fatal("no escalations despite a corrupted quorum member — the drill tested nothing")
	}
}
