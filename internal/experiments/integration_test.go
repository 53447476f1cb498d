package experiments

import (
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/memsim"
	"repro/internal/pim"
	"repro/internal/substrate"
)

// TestModelInRelaxedDRAM runs Figure 4b's mechanism end to end on the
// functional substrate the server mounts: the deployed class
// hypervectors sit in refresh-relaxed DRAM (substrate.DRAMDecay), one
// refresh interval passes at the interval that yields each target bit
// error rate, every weak cell that expired leaks into the live model,
// and accuracy is measured — no analytic shortcut anywhere in the
// chain.
func TestModelInRelaxedDRAM(t *testing.T) {
	ctx := testContext()
	tr, err := ctx.HDC(dataset.UCIHAR())
	if err != nil {
		t.Fatal(err)
	}
	clean := tr.CleanHDCAccuracy()
	snap := tr.System.Snapshot()
	defer tr.System.Restore(snap)

	retention := memsim.DefaultDRAMRetention()
	img := tr.System.AttackImage()
	type point struct{ ber, acc float64 }
	var results []point
	for _, targetBER := range []float64{0.001, 0.02, 0.06} {
		interval, err := retention.IntervalForBER(targetBER)
		if err != nil {
			t.Fatal(err)
		}
		tr.System.Restore(snap)
		dram, err := substrate.NewDRAMDecay(substrate.Config{
			Kind:              "dram",
			Seed:              99,
			Retention:         retention,
			RefreshIntervalMs: interval,
		}, img)
		if err != nil {
			t.Fatal(err)
		}
		res, err := dram.Advance(time.Duration(interval * float64(time.Millisecond)))
		if err != nil {
			t.Fatal(err)
		}
		// A weak cell is wrong only where the stored bit disagrees with
		// its discharge value: about half of them.
		if got := float64(res.BitsFlipped) / float64(img.Elements()); got < targetBER/4 || got > targetBER {
			t.Errorf("at BER %.3f one refresh interval flipped %.4f of the image", targetBER, got)
		}
		acc := tr.System.Model().Accuracy(tr.TestEnc, tr.Data.TestY)
		results = append(results, point{targetBER, acc})
	}

	// The HDC model must hold within a few points of clean accuracy
	// across the whole relaxation range — the Figure 4b claim, now on
	// functional hardware.
	for _, p := range results {
		if clean-p.acc > 0.06 {
			t.Errorf("at BER %.3f the DRAM-stored model lost %.1f points",
				p.ber, (clean-p.acc)*100)
		}
	}
	// And degradation is monotone-ish: the 6% point can't beat the
	// 0.1% point by more than noise.
	if results[2].acc > results[0].acc+0.02 {
		t.Errorf("accuracy ordering inverted: %.3f at 6%% vs %.3f at 0.1%%",
			results[2].acc, results[0].acc)
	}
}

// TestModelOnWearingCrossbar runs Figure 4a's mechanism end to end:
// the deployed model lives as columns of a functional MAGIC crossbar
// with finite endurance; continuous in-memory inference wears the
// scratch columns out and eventually corrupts the computed distances.
func TestModelOnWearingCrossbar(t *testing.T) {
	ctx := testContext()
	tr, err := ctx.HDC(dataset.PAMAP())
	if err != nil {
		t.Fatal(err)
	}
	dims := tr.System.Dimensions()
	classes := tr.System.Classes()

	engine, err := pim.NewAssociativeEngine(dims, classes, 400)
	if err != nil {
		t.Fatal(err)
	}
	if err := engine.LoadModel(tr.System.Snapshot()); err != nil {
		t.Fatal(err)
	}

	// Phase 1: fresh array agrees with software on every query.
	agree := 0
	for i, q := range tr.TestEnc {
		hw, err := engine.Predict(q)
		if err != nil {
			t.Fatal(err)
		}
		if hw == tr.System.Model().Predict(q) {
			agree++
		}
		if i >= 30 {
			break
		}
	}
	if agree < 31 {
		t.Fatalf("fresh crossbar disagreed with software on %d/31 queries", 31-agree)
	}

	// Phase 2: keep serving until scratch cells wear out.
	for round := 0; round < 40; round++ {
		for _, q := range tr.TestEnc[:10] {
			if _, err := engine.Predict(q); err != nil {
				t.Fatal(err)
			}
		}
		if engine.Crossbar().StuckCells() > 0 {
			break
		}
	}
	if engine.Crossbar().StuckCells() == 0 {
		t.Fatal("endurance 400 never produced stuck cells under continuous serving")
	}
}

// TestFleetDrillMasksTargetedCampaign is the fleet acceptance drill:
// under a sustained 10%-per-window targeted campaign on one replica of
// three, the quorum answer must hold within one point of clean in
// every window, while the unprotected twin running the same campaign
// alone must have lost at least five points by the final window — the
// gap the replica fleet exists to create. The sweep side must show
// real anti-entropy work (repaired bits) and the vote side real
// masking work (quorum escalations).
func TestFleetDrillMasksTargetedCampaign(t *testing.T) {
	ctx := testContext()
	res, err := FleetDrill(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Windows) == 0 {
		t.Fatal("fleet drill produced no windows")
	}
	if res.MinQuorum < res.Clean-0.01 {
		t.Errorf("quorum accuracy fell to %.4f, want within 1 point of clean %.4f in every window",
			res.MinQuorum, res.Clean)
	}
	if res.FinalTwin > res.Clean-0.05 {
		t.Errorf("unprotected twin only degraded to %.4f from clean %.4f; the campaign must cost >=5 points",
			res.FinalTwin, res.Clean)
	}
	if res.RepairBits == 0 {
		t.Error("anti-entropy repaired nothing: the drill never exercised chunk repair")
	}
	if res.Escalations == 0 {
		t.Error("no quorum escalations: the corrupted replica never forced a full vote")
	}
	// Every window's attacked-replica reading must sit at or below the
	// quorum answer: the vote can only mask damage, never add it.
	for w, row := range res.Windows {
		if row.AttackedAccuracy > row.QuorumAccuracy+0.02 {
			t.Errorf("window %d: attacked replica %.4f above quorum %.4f", w+1,
				row.AttackedAccuracy, row.QuorumAccuracy)
		}
	}
	out := res.Render()
	if !strings.Contains(out, "quorum answer") || !strings.Contains(out, "repaired by anti-entropy") {
		t.Fatal("render broken")
	}
}
