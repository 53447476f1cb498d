package recovery

import (
	"math"
	"sync"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/hdc/model"
	"repro/internal/stats"
)

// toyProblem builds a trained model over three *correlated* prototypes
// (each a 4% perturbation of a shared base vector) plus noisy
// query/eval streams drawn from them. Correlated classes give the
// small inter-class margins real encoded data exhibits — the regime
// where the paper's chunk-contest fault detection is sensitive.
// Orthogonal prototypes would leave margins so wide that uniformly
// damaged chunks still win their contests and detection (faithfully)
// never fires.
func toyProblem(t *testing.T, dims, nStream, nEval int, classSep, queryNoise float64) (*model.Model, []*bitvec.Vector, []*bitvec.Vector, []int) {
	t.Helper()
	rng := stats.NewRNG(77)
	base := bitvec.Random(dims, rng)
	protos := make([]*bitvec.Vector, 3)
	for c := range protos {
		protos[c] = base.Clone()
		protos[c].FlipBernoulli(classSep, rng)
	}
	draw := func(n int) ([]*bitvec.Vector, []int) {
		xs := make([]*bitvec.Vector, n)
		ys := make([]int, n)
		for i := range xs {
			c := i % len(protos)
			v := protos[c].Clone()
			v.FlipBernoulli(queryNoise, rng)
			xs[i], ys[i] = v, c
		}
		return xs, ys
	}
	trainX, trainY := draw(60)
	m, err := model.New(len(protos), dims)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Train(trainX, trainY); err != nil {
		t.Fatal(err)
	}
	streamX, _ := draw(nStream)
	evalX, evalY := draw(nEval)
	return m, streamX, evalX, evalY
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(10000); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	cases := []Config{
		{ConfidenceThreshold: 0, Chunks: 10, SubstitutionRate: 0.2},
		{ConfidenceThreshold: 1, Chunks: 10, SubstitutionRate: 0.2},
		{ConfidenceThreshold: 0.5, Chunks: 0, SubstitutionRate: 0.2},
		{ConfidenceThreshold: 0.5, Chunks: 20000, SubstitutionRate: 0.2},
		{ConfidenceThreshold: 0.5, Chunks: 10, SubstitutionRate: 0},
		{ConfidenceThreshold: 0.5, Chunks: 10, SubstitutionRate: 1.5},
	}
	for i, c := range cases {
		if err := c.Validate(10000); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

// TestValidateRejectsNonFinite pins the NaN/Inf fix: NaN compares
// false against every bound, so the old `v <= 0 || v > 1` checks waved
// it through and a NaN substitution rate silently disabled recovery.
func TestValidateRejectsNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		c := DefaultConfig()
		c.ConfidenceThreshold = v
		if err := c.Validate(10000); err == nil {
			t.Errorf("confidence threshold %v accepted", v)
		}
		c = DefaultConfig()
		c.SubstitutionRate = v
		if err := c.Validate(10000); err == nil {
			t.Errorf("substitution rate %v accepted", v)
		}
		c = DefaultConfig()
		c.GuardZ = v
		if err := c.Validate(10000); err == nil {
			t.Errorf("guard z %v accepted", v)
		}
	}
}

func TestSetSubstitutionRateRejectsNonFinite(t *testing.T) {
	m, _, _, _ := toyProblem(t, 512, 1, 1, 0.04, 0.03)
	r, err := New(m, DefaultConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	before := r.SubstitutionRate()
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -0.5, 1.5} {
		if err := r.SetSubstitutionRate(v); err == nil {
			t.Errorf("SetSubstitutionRate(%v) accepted", v)
		}
	}
	if got := r.SubstitutionRate(); got != before {
		t.Fatalf("rejected sets changed the rate: %v -> %v", before, got)
	}
	if err := r.SetSubstitutionRate(0.5); err != nil {
		t.Fatalf("valid rate rejected: %v", err)
	}
	if got := r.SubstitutionRate(); got != 0.5 {
		t.Fatalf("rate = %v after SetSubstitutionRate(0.5)", got)
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	m, _, _, _ := toyProblem(t, 512, 1, 1, 0.04, 0.03)
	if _, err := New(m, Config{}, 1); err == nil {
		t.Fatal("zero config accepted")
	}
}

func TestObservePredictsWithoutFaults(t *testing.T) {
	m, stream, evalX, evalY := toyProblem(t, 2048, 30, 30, 0.04, 0.02)
	r, err := New(m, DefaultConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	preds := r.Run(stream)
	if len(preds) != 30 {
		t.Fatalf("got %d predictions", len(preds))
	}
	if acc := m.Accuracy(evalX, evalY); acc < 0.95 {
		t.Fatalf("clean accuracy %.3f after recovery stream — recovery damaged a healthy model", acc)
	}
	if r.Stats().Queries != 30 {
		t.Fatalf("Queries = %d", r.Stats().Queries)
	}
}

func TestRecoveryHealsAttackedModel(t *testing.T) {
	const dims = 4096
	m, stream, evalX, evalY := toyProblem(t, dims, 600, 60, 0.04, 0.03)
	clean := m.Accuracy(evalX, evalY)
	snapshot := m.SnapshotDeployed()

	// Attack: 25% uniform random flips on every class hypervector —
	// the paper's regime, where predictions remain mostly correct and
	// the unsupervised recovery loop can trust its pseudo-labels.
	rng := stats.NewRNG(123)
	for c := 0; c < m.Classes(); c++ {
		m.ClassVector(c).FlipBernoulli(0.25, rng)
	}
	damagedDist := 0
	for c := 0; c < m.Classes(); c++ {
		damagedDist += m.ClassVector(c).Hamming(snapshot[c])
	}

	cfg := DefaultConfig()
	cfg.GuardZ = -1                // raw paper criterion; the toy's margins tolerate it
	cfg.ConfidenceThreshold = 0.80 // the toy stream is clean; trust more of it
	r, err := New(m, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	r.Run(stream)

	healedDist := 0
	for c := 0; c < m.Classes(); c++ {
		healedDist += m.ClassVector(c).Hamming(snapshot[c])
	}
	if healedDist > damagedDist*4/5 {
		t.Fatalf("recovery healed too little: %d -> %d", damagedDist, healedDist)
	}
	healed := m.Accuracy(evalX, evalY)
	if healed < clean-0.02 {
		t.Fatalf("accuracy not recovered: clean %.3f, healed %.3f", clean, healed)
	}
	if r.Stats().BitsSubstituted == 0 || r.Stats().FaultyChunks == 0 {
		t.Fatalf("no recovery activity recorded: %+v", r.Stats())
	}
}

func TestHeavySingleClassAttackBeyondRecovery(t *testing.T) {
	// Documents the paper's operating assumption: when one class is
	// damaged so heavily that its queries are *confidently*
	// misclassified, the unsupervised loop cannot heal it — the
	// pseudo-labels themselves are wrong. Recovery is designed for
	// error rates where HDC predictions remain correct (≤ ~25%
	// uniform), not for an adversary that randomizes a full class
	// vector.
	m, stream, evalX, evalY := toyProblem(t, 4096, 300, 60, 0.04, 0.03)
	rng := stats.NewRNG(5)
	m.ClassVector(0).FlipBernoulli(0.45, rng)
	damaged := m.Accuracy(evalX, evalY)
	if damaged > 0.8 {
		t.Skipf("attack did not break the model (accuracy %.3f); nothing to document", damaged)
	}
	r, _ := New(m, DefaultConfig(), 6)
	r.Run(stream)
	healed := m.Accuracy(evalX, evalY)
	if healed > 0.9 {
		t.Fatalf("expected unrecoverable damage, but accuracy healed to %.3f", healed)
	}
}

func TestConfidenceGateBlocksUpdates(t *testing.T) {
	m, _, _, _ := toyProblem(t, 1024, 1, 1, 0.04, 0.03)
	cfg := DefaultConfig()
	// At the fixed confidence scale a 0.999999 gate needs a logit gap of
	// ln 10⁶ ≈ 13.8, a similarity gap of ≈ 0.115: far beyond the spread
	// of a random query's similarities at D=1024.
	cfg.ConfidenceThreshold = 0.999999
	r, err := New(m, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(9)
	for i := 0; i < 20; i++ {
		_, updated := r.Observe(bitvec.Random(1024, rng))
		if updated {
			t.Fatal("update happened despite impossible confidence gate")
		}
	}
	if r.Stats().Trusted != 0 {
		t.Fatalf("Trusted = %d, want 0", r.Stats().Trusted)
	}
	if r.Stats().BitsSubstituted != 0 {
		t.Fatal("bits substituted with gate closed")
	}
}

func TestChunkDetectionTargetsCorruptedRegion(t *testing.T) {
	// Corrupt one chunk of class 0 completely; after recovery that
	// chunk must be repaired (distance to the clean snapshot reduced)
	// while untouched chunks stay intact.
	const dims, chunks = 4000, 10
	m, stream, _, _ := toyProblem(t, dims, 400, 10, 0.08, 0.03)
	snapshot := m.SnapshotDeployed()

	lo, hi := 0, dims/chunks // first chunk
	cv := m.ClassVector(0)
	for i := lo; i < hi; i++ {
		cv.Flip(i)
	}

	cfg := DefaultConfig()
	cfg.Chunks = chunks
	r, err := New(m, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	r.Run(stream)

	repaired := m.ClassVector(0).HammingRange(snapshot[0], lo, hi)
	if repaired > (hi-lo)/4 {
		t.Fatalf("corrupted chunk still %d/%d bits wrong after recovery", repaired, hi-lo)
	}
	// The other classes were never attacked; they must be nearly
	// untouched (small drift from substitution of genuinely ambiguous
	// queries is tolerated).
	for c := 1; c < m.Classes(); c++ {
		drift := m.ClassVector(c).Hamming(snapshot[c])
		if drift > dims/20 {
			t.Fatalf("class %d drifted %d bits without being attacked", c, drift)
		}
	}
}

func TestRunTracedProducesMonotoneQueries(t *testing.T) {
	m, stream, evalX, evalY := toyProblem(t, 1024, 50, 20, 0.04, 0.03)
	r, _ := New(m, DefaultConfig(), 5)
	trace := r.RunTraced(stream, evalX, evalY, 10)
	if len(trace) < 2 {
		t.Fatalf("trace too short: %d", len(trace))
	}
	if trace[0].Queries != 0 {
		t.Fatalf("trace should start at 0 queries, got %d", trace[0].Queries)
	}
	for i := 1; i < len(trace); i++ {
		if trace[i].Queries <= trace[i-1].Queries {
			t.Fatalf("trace queries not increasing at %d", i)
		}
	}
	if last := trace[len(trace)-1]; last.Queries != 50 {
		t.Fatalf("final trace point at %d queries, want 50", last.Queries)
	}
}

func TestSamplesToRecover(t *testing.T) {
	trace := []TracePoint{
		{Queries: 0, Accuracy: 0.7},
		{Queries: 10, Accuracy: 0.8},
		{Queries: 20, Accuracy: 0.92},
		{Queries: 30, Accuracy: 0.95},
	}
	if got := SamplesToRecover(trace, 0.9); got != 20 {
		t.Fatalf("SamplesToRecover = %d, want 20", got)
	}
	if got := SamplesToRecover(trace, 0.99); got != -1 {
		t.Fatalf("unreachable target returned %d", got)
	}
}

func TestStatsAccounting(t *testing.T) {
	m, stream, _, _ := toyProblem(t, 1024, 40, 10, 0.04, 0.03)
	rng := stats.NewRNG(6)
	for c := 0; c < m.Classes(); c++ {
		m.ClassVector(c).FlipBernoulli(0.2, rng)
	}
	cfg := DefaultConfig()
	r, _ := New(m, cfg, 7)
	r.Run(stream)
	s := r.Stats()
	if s.Queries != 40 {
		t.Fatalf("Queries = %d", s.Queries)
	}
	if s.Trusted > s.Queries {
		t.Fatal("Trusted exceeds Queries")
	}
	if s.FaultyChunks > s.ChunksChecked {
		t.Fatal("FaultyChunks exceeds ChunksChecked")
	}
	if s.ChunksChecked != s.Trusted*cfg.Chunks {
		t.Fatalf("ChunksChecked = %d, want Trusted(%d)*Chunks(%d)",
			s.ChunksChecked, s.Trusted, cfg.Chunks)
	}
}

func TestRecoveryDeterministicForSeed(t *testing.T) {
	run := func() Stats {
		m, stream, _, _ := toyProblem(t, 1024, 60, 10, 0.04, 0.03)
		rng := stats.NewRNG(8)
		for c := 0; c < m.Classes(); c++ {
			m.ClassVector(c).FlipBernoulli(0.1, rng)
		}
		r, _ := New(m, DefaultConfig(), 9)
		r.Run(stream)
		return r.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed produced different stats: %+v vs %+v", a, b)
	}
}

func TestHigherSubstitutionRecoversFaster(t *testing.T) {
	// Figure 3's substitution-rate effect: with the same stream, a
	// higher substitution rate rewrites at least as many bits.
	bitsFor := func(rate float64) int {
		m, stream, _, _ := toyProblem(t, 2048, 200, 10, 0.04, 0.03)
		rng := stats.NewRNG(10)
		for c := 0; c < m.Classes(); c++ {
			m.ClassVector(c).FlipBernoulli(0.2, rng)
		}
		cfg := DefaultConfig()
		cfg.SubstitutionRate = rate
		cfg.GuardZ = -1 // raw criterion so substitution activity is visible
		r, _ := New(m, cfg, 11)
		r.Run(stream)
		return r.Stats().BitsSubstituted
	}
	low, high := bitsFor(0.05), bitsFor(0.5)
	if high <= low {
		t.Fatalf("substitution rate 0.5 rewrote %d bits, rate 0.05 rewrote %d", high, low)
	}
}

func TestConcurrentObserveAndStats(t *testing.T) {
	// The serve package calls Observe from its recovery goroutine
	// while /metrics reads Stats from request handlers. With the
	// model untouched by other writers (as serve's single-writer lock
	// guarantees), concurrent Observe+Stats must be race-free and
	// lose no counts. Run under -race to make the check meaningful.
	m, stream, _, _ := toyProblem(t, 2048, 400, 16, 0.10, 0.02)
	r, err := New(m, Config{
		ConfidenceThreshold: 0.55,
		Chunks:              8,
		SubstitutionRate:    0.25,
	}, 5)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Stats readers hammering alongside the observers.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					st := r.Stats()
					if st.Trusted > st.Queries {
						t.Error("stats torn: trusted > queries")
						return
					}
				}
			}
		}()
	}
	// Concurrent observers; the internal mutex serializes them.
	var obs sync.WaitGroup
	for w := 0; w < 4; w++ {
		obs.Add(1)
		go func(w int) {
			defer obs.Done()
			for i := w; i < len(stream); i += 4 {
				r.Observe(stream[i])
			}
		}(w)
	}
	obs.Wait()
	close(stop)
	wg.Wait()

	if st := r.Stats(); st.Queries != len(stream) {
		t.Fatalf("lost observations: %d counted, %d sent", st.Queries, len(stream))
	}
}
