package substrate

import (
	"math"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/bitvec"
	"repro/internal/hdc/model"
	"repro/internal/memsim"
	"repro/internal/stats"
)

// testImage builds a small trained binary model and its attack image.
func testImage(t *testing.T) (*model.Model, *attack.BinaryModel) {
	t.Helper()
	return benchImage(t, 4, 512)
}

// benchImage trains a classes × dims binary model on five random
// encodings per class and returns it with its attack image.
func benchImage(tb testing.TB, classes, dims int) (*model.Model, *attack.BinaryModel) {
	tb.Helper()
	rng := stats.NewRNG(7)
	m, err := model.New(classes, dims)
	if err != nil {
		tb.Fatal(err)
	}
	encoded := make([]*bitvec.Vector, 5*classes)
	labels := make([]int, len(encoded))
	for i := range encoded {
		encoded[i] = bitvec.Random(dims, rng)
		labels[i] = i % classes
	}
	if err := m.Train(encoded, labels); err != nil {
		tb.Fatal(err)
	}
	return m, attack.NewBinaryModel(m)
}

// damage counts deployed bits differing from the snapshot.
func damage(m *model.Model, snap []*bitvec.Vector) int {
	total := 0
	for c, v := range snap {
		total += m.ClassVector(c).Hamming(v)
	}
	return total
}

func TestNewRejectsUnknownKind(t *testing.T) {
	_, img := testImage(t)
	if _, err := New(Config{Kind: "cosmic-rays"}, img); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

// TestNewRejectsNonFiniteKnobs pins the uniform NaN/Inf rejection: the
// zero-means-default convention fills defaults via `v <= 0`, which NaN
// passes, so without the up-front finite check a NaN TimeScale would
// reach the decay arithmetic and freeze the simulated clock.
func TestNewRejectsNonFiniteKnobs(t *testing.T) {
	_, img := testImage(t)
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := New(Config{Kind: "dram", TimeScale: v}, img); err == nil {
			t.Errorf("dram time scale %v accepted", v)
		}
		if _, err := New(Config{Kind: "dram", RefreshIntervalMs: v}, img); err == nil {
			t.Errorf("dram refresh interval %v accepted", v)
		}
		if _, err := New(Config{Kind: "adversarial", RatePerStep: v}, img); err == nil {
			t.Errorf("adversarial rate %v accepted", v)
		}
	}
	if _, err := New(Config{Kind: "adversarial", RatePerStep: 1.5}, img); err == nil {
		t.Error("adversarial rate 1.5 accepted")
	}
	if _, err := New(Config{Kind: "adversarial", RatePerStep: -0.1}, img); err == nil {
		t.Error("adversarial rate -0.1 accepted")
	}
}

func TestDRAMDecayLeaksSaturatesAndRefreshPreservesErrors(t *testing.T) {
	m, img := testImage(t)
	clean := m.SnapshotDeployed()
	p, err := New(Config{
		Kind: "dram",
		Seed: 3,
		Retention: memsim.DRAMRetention{Populations: []memsim.RetentionPopulation{
			{Fraction: 0.10, MuLogMs: math.Log(100), SigmaLog: 0.3},
		}},
		RefreshIntervalMs: 1000,
	}, img)
	if err != nil {
		t.Fatal(err)
	}
	d := p.(*DRAMDecay)
	if w := d.WeakCells(); w < 150 || w > 260 {
		t.Fatalf("sampled %d weak cells, want ~205 (10%% of %d)", w, 4*512)
	}

	// One simulated second: past every cell's retention time.
	res, err := p.Advance(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Roughly half the weak cells stored their discharge value already;
	// the rest leak into errors.
	if res.BitsFlipped < d.WeakCells()/4 || res.BitsFlipped > d.WeakCells() {
		t.Fatalf("first epoch flipped %d bits over %d weak cells", res.BitsFlipped, d.WeakCells())
	}
	if got := damage(m, clean); got != res.BitsFlipped {
		t.Fatalf("model damage %d != reported flips %d", got, res.BitsFlipped)
	}

	// Saturation: refresh recharges the leaked values, so further
	// epochs inject nothing new on an unwritten image.
	for i := 0; i < 3; i++ {
		res, err = p.Advance(1500 * time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if res.BitsFlipped != 0 {
			t.Fatalf("epoch %d flipped %d bits on a saturated, unwritten image", i, res.BitsFlipped)
		}
	}
	before := damage(m, clean)

	// A rewrite (what recovery does) recharges the cell — and the cell
	// leaks again next epoch: repair the whole image and watch decay
	// re-assert the same leak pattern.
	m.RestoreDeployed(clean)
	res, err = p.Advance(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.BitsFlipped != before {
		t.Fatalf("after full repair, decay re-flipped %d bits, want the original %d", res.BitsFlipped, before)
	}

	// Refresh() (rollback hook) restarts the epoch: with the image
	// still degraded, re-enforcement finds nothing to change.
	p.Refresh()
	if res, _ = p.Advance(time.Second); res.BitsFlipped != 0 {
		t.Fatalf("post-Refresh epoch flipped %d bits without any rewrite", res.BitsFlipped)
	}
	st := p.Stats()
	if st.Advances != 6 || st.BitsFlipped != int64(2*before) {
		t.Fatalf("stats %+v: want 6 advances, %d cumulative flips", st, 2*before)
	}
}

// TestDRAMDecayWeakCellsTrackBitErrorRate: the sampled weak-cell
// population reproduces the retention model it is drawn from — the
// share of image bits whose retention ends within IntervalForBER(b)
// is b.
func TestDRAMDecayWeakCellsTrackBitErrorRate(t *testing.T) {
	_, img := benchImage(t, 26, 10000)
	retention := memsim.DefaultDRAMRetention()
	d, err := NewDRAMDecay(Config{Kind: "dram", Seed: 3, Retention: retention}, img)
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range []float64{0.001, 0.02, 0.06} {
		interval, err := retention.IntervalForBER(target)
		if err != nil {
			t.Fatal(err)
		}
		weak := 0
		for _, c := range d.cells {
			if c.retentionMs < interval {
				weak++
			}
		}
		got := float64(weak) / float64(img.Elements())
		if math.Abs(got-target) > target/2+0.005 {
			t.Fatalf("interval %.1fms: weak fraction %v, model %v", interval, got, target)
		}
	}
}

// oneRefreshFlipShare advances a default-retention DRAMDecay by one
// refresh interval of refreshMs and returns the share of image bits it
// flipped.
func oneRefreshFlipShare(t *testing.T, refreshMs float64) float64 {
	t.Helper()
	_, img := benchImage(t, 26, 10000)
	d, err := NewDRAMDecay(Config{Kind: "dram", Seed: 2, RefreshIntervalMs: refreshMs}, img)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Advance(time.Duration(refreshMs) * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	return float64(res.BitsFlipped) / float64(img.Elements())
}

// TestDRAMDecayCleanAtConventionalRefresh: at the default retention
// model the conventional 64 ms refresh (model BER ≈ 0.4%) leaks well
// under 1% of the image in one interval.
func TestDRAMDecayCleanAtConventionalRefresh(t *testing.T) {
	if got := oneRefreshFlipShare(t, 64); got > 0.01 {
		t.Fatalf("64ms refresh: one interval flipped %v of the image, want <= 0.01", got)
	}
}

// TestDRAMDecayRoundTripWhenClean: at a conservative 16 ms refresh no
// weak cell of the default retention model discharges, so the image
// reads back bit-exact.
func TestDRAMDecayRoundTripWhenClean(t *testing.T) {
	if got := oneRefreshFlipShare(t, 16); got != 0 {
		t.Fatalf("16ms refresh: one interval flipped %v of the image, want 0", got)
	}
}

func TestDRAMDecayClusterRunsAreContiguous(t *testing.T) {
	_, img := testImage(t)
	p, err := NewDRAMDecay(Config{
		Kind: "dram",
		Seed: 9,
		Retention: memsim.DRAMRetention{Populations: []memsim.RetentionPopulation{
			{Fraction: 0.05, MuLogMs: math.Log(50), SigmaLog: 0.2},
		}},
		ClusterRun: 16,
	}, img)
	if err != nil {
		t.Fatal(err)
	}
	// Cells sharing a retention time must form contiguous position runs.
	byRetention := map[float64][]int{}
	for _, c := range p.cells {
		byRetention[c.retentionMs] = append(byRetention[c.retentionMs], c.pos)
	}
	if len(byRetention) == 0 {
		t.Fatal("no runs sampled")
	}
	for ret, ps := range byRetention {
		lo, hi := ps[0], ps[0]
		for _, x := range ps {
			lo, hi = min(lo, x), max(hi, x)
		}
		if hi-lo != len(ps)-1 {
			t.Fatalf("run at retention %.2fms spans [%d,%d] with %d cells: not contiguous", ret, lo, hi, len(ps))
		}
	}
}

func TestEnduranceWearSticksCellsAgainstRewrites(t *testing.T) {
	m, img := testImage(t)
	p, err := New(Config{
		Kind:      "endurance",
		Seed:      5,
		Endurance: memsim.EnduranceModel{NominalWrites: 100, SigmaLog: 0.4},
	}, img)
	if err != nil {
		t.Fatal(err)
	}
	e := p.(*EnduranceWear)
	total := img.Elements()

	// No traffic, no wear.
	if res, _ := p.Advance(time.Second); res.BitsFlipped != 0 || e.FailedCells() != 0 {
		t.Fatalf("wear without writes: %+v, %d failed", res, e.FailedCells())
	}

	// Charge ~50 leveled writes per cell: ~4% of cells wear out
	// (Φ((ln50−ln100)/0.4) ≈ 0.042). Latching is silent — cells stick
	// at the value they hold.
	p.NoteWrites(50 * total)
	res, err := p.Advance(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	failed := e.FailedCells()
	if failed < total/100 || failed > total/10 {
		t.Fatalf("%d of %d cells failed at 50/100 leveled writes", failed, total)
	}
	if res.BitsFlipped != 0 {
		t.Fatalf("latching flipped %d bits; stuck-at-current must be silent", res.BitsFlipped)
	}

	// Rewrite every stuck cell to the opposite value (a recovery write
	// into worn memory): the next scrub re-asserts every latched value.
	for i := 0; i < failed; i++ {
		img.FlipBit(e.cells[i].pos, 0)
	}
	res, err = p.Advance(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.BitsFlipped != failed {
		t.Fatalf("re-assertion flipped %d bits, want %d (every stuck cell)", res.BitsFlipped, failed)
	}
	if d := damage(m, m.SnapshotDeployed()); d != 0 {
		t.Fatalf("snapshot disagrees with itself: %d", d)
	}
	st := p.Stats()
	if st.WritesCharged != int64(50*total) || st.FailedCells != int64(failed) {
		t.Fatalf("stats %+v", st)
	}
}

func TestAdversarialCampaignStepsOnCadence(t *testing.T) {
	_, img := testImage(t)
	p, err := New(Config{
		Kind:        "adversarial",
		Seed:        11,
		RatePerStep: 0.01,
		StepEvery:   10 * time.Millisecond,
	}, img)
	if err != nil {
		t.Fatal(err)
	}
	perStep := int(0.01 * float64(img.Elements()))

	res, err := p.Advance(25 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.BitsFlipped != 2*perStep {
		t.Fatalf("25ms advance flipped %d bits, want 2 steps × %d", res.BitsFlipped, perStep)
	}
	// 5ms carry + 5ms: exactly one more step.
	if res, _ = p.Advance(2 * time.Millisecond); res.BitsFlipped != 0 {
		t.Fatalf("7ms of carry fired a step early: %d flips", res.BitsFlipped)
	}
	if res, _ = p.Advance(3 * time.Millisecond); res.BitsFlipped != perStep {
		t.Fatalf("10ms of carry flipped %d bits, want %d", res.BitsFlipped, perStep)
	}
	if got := p.(*AdversarialCampaign).Steps(); got != 3 {
		t.Fatalf("campaign ran %d steps, want 3", got)
	}
	if st := p.Stats(); st.BitsFlipped != int64(3*perStep) {
		t.Fatalf("campaign counted %d cumulative flips, want %d", st.BitsFlipped, 3*perStep)
	}
}

// TestAdversarialCampaignMatchesRandomStream pins the campaign's fault
// stream: on every step k it flips exactly the bits that attack.Random
// flips on its own step k from the campaign's RNG (seed ^
// 0x9E6C63D0876A9A99), so two campaigns with one seed flip the same
// bits, step for step.
func TestAdversarialCampaignMatchesRandomStream(t *testing.T) {
	const seed, rate, steps = 42, 0.05, 4
	m, img := testImage(t)
	ref, refImg := testImage(t)
	p, err := New(Config{
		Kind:        "adversarial",
		Seed:        seed,
		RatePerStep: rate,
		StepEvery:   time.Millisecond,
	}, img)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(seed ^ 0x9E6C63D0876A9A99)
	for k := 0; k < steps; k++ {
		got, err := p.Advance(time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		want, err := attack.Random(refImg, rate, rng)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("step %d: campaign %+v, Random %+v", k, got, want)
		}
		if d := damage(m, ref.SnapshotDeployed()); d != 0 {
			t.Fatalf("step %d: campaign and Random differ in %d bits", k, d)
		}
	}
}
