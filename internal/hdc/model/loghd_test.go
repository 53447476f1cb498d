package model

import (
	"bytes"
	"math"
	"math/bits"
	"strings"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/stats"
)

// trainedLogHDPair builds a dense model over well-separated synthetic
// classes plus its compressed deployment and a labeled query set.
func trainedLogHDPair(t *testing.T, classes, dims, extra int) (*Model, *LogHD, []*bitvec.Vector, []int) {
	t.Helper()
	rng := stats.NewRNG(500)
	protos := make([]*bitvec.Vector, classes)
	for c := range protos {
		protos[c] = bitvec.Random(dims, rng)
	}
	var tr []*bitvec.Vector
	var labels []int
	for c := 0; c < classes; c++ {
		for s := 0; s < 12; s++ {
			v := protos[c].Clone()
			v.FlipBernoulli(0.05, rng)
			tr = append(tr, v)
			labels = append(labels, c)
		}
	}
	m, err := New(classes, dims)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Train(tr, labels); err != nil {
		t.Fatal(err)
	}
	l, err := CompressLogHD(m, extra)
	if err != nil {
		t.Fatal(err)
	}
	var qs []*bitvec.Vector
	var qy []int
	for c := 0; c < classes; c++ {
		for s := 0; s < 8; s++ {
			v := protos[c].Clone()
			v.FlipBernoulli(0.08, rng)
			qs = append(qs, v)
			qy = append(qy, c)
		}
	}
	return m, l, qs, qy
}

func TestCompressLogHDShapeAndDeterminism(t *testing.T) {
	m, l, _, _ := trainedLogHDPair(t, 12, 1024, 0)
	wantPlanes := bits.Len(uint(12 - 1)) // ceil(log2 12) = 4
	if l.Planes() != wantPlanes {
		t.Fatalf("planes %d, want %d", l.Planes(), wantPlanes)
	}
	if l.Classes() != 12 || l.Dimensions() != 1024 {
		t.Fatalf("shape (%d,%d) lost", l.Classes(), l.Dimensions())
	}
	// Codewords are distinct and in range.
	seen := map[uint32]bool{}
	for c := 0; c < 12; c++ {
		cw := l.Codeword(c)
		if cw>>uint(wantPlanes) != 0 {
			t.Fatalf("codeword %#x exceeds %d planes", cw, wantPlanes)
		}
		if seen[cw] {
			t.Fatalf("codeword %#x assigned twice", cw)
		}
		seen[cw] = true
	}
	// Deterministic construction: compressing again is bit-identical.
	l2, err := CompressLogHD(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < l.Planes(); j++ {
		if !l.PlaneVector(j).Equal(l2.PlaneVector(j)) {
			t.Fatalf("plane %d differs across identical compressions", j)
		}
	}
}

// TestCompressLogHDPlanesMatchVoteCount pins every plane to its
// definition by a per-bit vote count: class c votes C_c[i] where bit j
// of its codeword is set and ^C_c[i] where it is clear, plane j's bit i
// is set when more than k/2 votes have it, and an exact tie at even k
// sets the even dimensions. The class counts cross 2032, past which the
// bundling kernel merges blocks of its register planes.
func TestCompressLogHDPlanesMatchVoteCount(t *testing.T) {
	rng := stats.NewRNG(501)
	for _, k := range []int{2, 3, 12, 13, 2047, 2100} {
		for _, dims := range []int{1, 63, 65, 257} {
			m, err := New(k, dims)
			if err != nil {
				t.Fatal(err)
			}
			for c := 0; c < k; c++ {
				m.SetClassVector(c, bitvec.Random(dims, rng))
			}
			for _, extra := range []int{0, 2} {
				l, err := CompressLogHD(m, extra)
				if err != nil {
					t.Fatal(err)
				}
				for j := 0; j < l.Planes(); j++ {
					plane := l.PlaneVector(j)
					for i := 0; i < dims; i++ {
						votes := 0
						for c := 0; c < k; c++ {
							if m.ClassVector(c).Get(i) == (l.Codeword(c)>>uint(j)&1 == 1) {
								votes++
							}
						}
						want := 2*votes > k || 2*votes == k && i%2 == 0
						if plane.Get(i) != want {
							t.Fatalf("k=%d dims=%d extra=%d plane %d bit %d: got %v, %d of %d votes",
								k, dims, extra, j, i, plane.Get(i), votes, k)
						}
					}
				}
			}
		}
	}
}

func TestLogHDMemoryReduction(t *testing.T) {
	// The acceptance bar: ≥ 2× class-memory reduction at k ≥ 10.
	m, l, _, _ := trainedLogHDPair(t, 10, 4096, 0)
	dense := m.Classes() * m.Dimensions()
	ratio := float64(dense) / float64(l.StorageBits())
	if ratio < 2 {
		t.Fatalf("memory ratio %.2f < 2x (dense %d bits, loghd %d bits)",
			ratio, dense, l.StorageBits())
	}
}

func TestLogHDPredictsLikeDense(t *testing.T) {
	m, l, qs, qy := trainedLogHDPair(t, 12, 1024, 2)
	dacc := m.AccuracyParallel(qs, qy, 0)
	lacc := l.AccuracyParallel(qs, qy, 0)
	if dacc < 0.95 {
		t.Fatalf("dense accuracy %.3f unexpectedly low", dacc)
	}
	// Compression trades some margin; on clean, well-separated queries
	// it should remain near the dense model.
	if lacc < dacc-0.15 {
		t.Fatalf("loghd accuracy %.3f too far below dense %.3f", lacc, dacc)
	}
	// Confidence contract: softmax over k classes in (1/k, 1].
	pred, conf := l.PredictWithConfidence(qs[0], 0)
	if pred != l.Predict(qs[0]) {
		t.Fatal("PredictWithConfidence disagrees with Predict")
	}
	if conf <= 1.0/float64(l.Classes()) || conf > 1 {
		t.Fatalf("confidence %v outside (1/k, 1]", conf)
	}
	sims := make([]float64, l.Classes())
	l.view().SimilaritiesInto(sims, qs[0])
	for c, s := range sims {
		if s < 0 || s > 1 || math.IsNaN(s) {
			t.Fatalf("similarity[%d] = %v outside [0,1]", c, s)
		}
	}
}

func TestLogHDCloneAndSnapshotIndependence(t *testing.T) {
	_, l, qs, _ := trainedLogHDPair(t, 8, 512, 0)
	c := l.Clone()
	snap := l.SnapshotDeployed()
	rng := stats.NewRNG(501)
	for j := 0; j < l.Planes(); j++ {
		l.PlaneVector(j).FlipBernoulli(0.5, rng)
	}
	for j := 0; j < l.Planes(); j++ {
		if l.PlaneVector(j).Equal(c.PlaneVector(j)) {
			t.Fatalf("clone plane %d shares storage", j)
		}
	}
	before := c.Predict(qs[0])
	l.RestoreDeployed(snap)
	for j := 0; j < l.Planes(); j++ {
		if !l.PlaneVector(j).Equal(c.PlaneVector(j)) {
			t.Fatalf("restore did not reinstall plane %d", j)
		}
	}
	if got := l.Predict(qs[0]); got != before {
		t.Fatalf("restored deployment predicts %d, clone %d", got, before)
	}
}

func TestLogHDWriteReadRoundTrip(t *testing.T) {
	_, l, qs, _ := trainedLogHDPair(t, 11, 257, 1) // odd dims: tail word
	var buf bytes.Buffer
	if err := l.WriteDeployed(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadLogHD(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Classes() != l.Classes() || loaded.Dimensions() != l.Dimensions() ||
		loaded.Planes() != l.Planes() {
		t.Fatal("shape lost in round trip")
	}
	for j := 0; j < l.Planes(); j++ {
		if !loaded.PlaneVector(j).Equal(l.PlaneVector(j)) {
			t.Fatalf("plane %d differs after round trip", j)
		}
	}
	for c := 0; c < l.Classes(); c++ {
		if loaded.Codeword(c) != l.Codeword(c) {
			t.Fatalf("codeword %d differs after round trip", c)
		}
	}
	for i, q := range qs {
		if loaded.Predict(q) != l.Predict(q) {
			t.Fatalf("query %d predicts differently after round trip", i)
		}
	}
}

func TestBackendTagRejection(t *testing.T) {
	m, l, _, _ := trainedLogHDPair(t, 8, 256, 0)
	var dense, compressed bytes.Buffer
	if err := m.WriteDeployed(&dense); err != nil {
		t.Fatal(err)
	}
	if err := l.WriteDeployed(&compressed); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadDeployed(bytes.NewReader(compressed.Bytes())); err == nil ||
		!strings.Contains(err.Error(), "backend tag") {
		t.Fatalf("dense reader accepted loghd image: %v", err)
	}
	if _, err := ReadLogHD(bytes.NewReader(dense.Bytes())); err == nil ||
		!strings.Contains(err.Error(), "backend tag") {
		t.Fatalf("loghd reader accepted dense image: %v", err)
	}
	// ReadBackend dispatches on the tag and accepts both.
	dm, dl, err := ReadBackend(bytes.NewReader(dense.Bytes()))
	if err != nil || dm == nil || dl != nil {
		t.Fatalf("ReadBackend(dense) = (%v,%v,%v)", dm, dl, err)
	}
	cm, cl, err := ReadBackend(bytes.NewReader(compressed.Bytes()))
	if err != nil || cm != nil || cl == nil {
		t.Fatalf("ReadBackend(loghd) = (%v,%v,%v)", cm, cl, err)
	}
}

func TestReadLogHDRejectsGarbage(t *testing.T) {
	_, l, _, _ := trainedLogHDPair(t, 8, 256, 0)
	var buf bytes.Buffer
	if err := l.WriteDeployed(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := ReadLogHD(bytes.NewReader(data[:len(data)-3])); err == nil {
		t.Fatal("truncated image accepted")
	}
	bad := append([]byte(nil), data...)
	bad[0] ^= 0xFF
	if _, err := ReadLogHD(bytes.NewReader(bad)); err == nil {
		t.Fatal("corrupt magic accepted")
	}

	// Duplicate codewords: k=5 over 3 planes with class 4's codeword
	// overwritten by class 3's. Class 4 would decode to class 3's score
	// and never win a tie.
	_, l5, _, _ := trainedLogHDPair(t, 5, 256, 0)
	buf.Reset()
	if err := l5.WriteDeployed(&buf); err != nil {
		t.Fatal(err)
	}
	dup := buf.Bytes()
	cw := func(c int) int { return len(dup) - 8*l5.Planes() - 8*(l5.Classes()-c) }
	copy(dup[cw(4):cw(4)+8], dup[cw(3):cw(3)+8])
	if _, err := ReadLogHD(bytes.NewReader(dup)); err == nil {
		t.Fatal("duplicate codewords accepted")
	}
}

// TestReadLogHDBoundsAllocation is TestReadDeployedBoundsAllocation
// for the compressed reader.
func TestReadLogHDBoundsAllocation(t *testing.T) {
	const bound = 1 << 20
	for name, img := range map[string][]byte{
		"classes": forgedImage(loghdMagic, 1<<20, 64, maxLogHDPlanes),
		"blob":    forgedImage(loghdMagic, 2, 1<<29, 1, maxBlob(1<<29)),
	} {
		var err error
		got := allocatedBy(func() { _, err = ReadLogHD(bytes.NewReader(img)) })
		if err == nil {
			t.Fatalf("%s: forged header accepted", name)
		}
		if got > bound {
			t.Fatalf("%s: failing read allocated %d bytes, want <= %d", name, got, bound)
		}
	}
}

func TestLogHDEpochChainServesCompressedImages(t *testing.T) {
	_, l, qs, _ := trainedLogHDPair(t, 10, 512, 0)
	chain := NewEpochChain(l)
	ep := chain.Acquire()
	img := ep.Frozen()
	if img.Classes() != l.Classes() || img.Dimensions() != l.Dimensions() {
		t.Fatalf("frozen shape (%d,%d)", img.Classes(), img.Dimensions())
	}
	// Frozen scoring must be bit-identical to the live deployment.
	for i, q := range qs {
		if img.Predict(q) != l.Predict(q) {
			t.Fatalf("query %d: frozen disagrees with live", i)
		}
		wp, wc := l.PredictWithConfidence(q, 0)
		gp, gc := img.PredictWithConfidence(q, 0)
		if wp != gp || math.Abs(wc-gc) > 1e-12 {
			t.Fatalf("query %d: frozen confidence (%d,%v) != live (%d,%v)", i, gp, gc, wp, wc)
		}
	}
	ep.Release()

	// Plane-granular publish: flip bits in one plane, publish it dirty,
	// and the new epoch must track the live deployment while the old
	// answers stay frozen.
	old := chain.Acquire()
	oldPred := old.Frozen().Predict(qs[0])
	rng := stats.NewRNG(502)
	l.PlaneVector(1).FlipBernoulli(0.4, rng)
	chain.Publish(l, []int{1})
	cur := chain.Acquire()
	if got, want := cur.Frozen().Predict(qs[0]), l.Predict(qs[0]); got != want {
		t.Fatalf("published epoch predicts %d, live %d", got, want)
	}
	if got := old.Frozen().Predict(qs[0]); got != oldPred {
		t.Fatalf("pinned epoch changed its answer: %d != %d", got, oldPred)
	}
	cur.Release()
	old.Release()
	// Publishing again reclaims the drained epoch's private planes.
	chain.Publish(l, nil)
	if st := chain.Stats(); st.Recycled == 0 {
		t.Fatalf("no epochs recycled: %+v", st)
	}
}

func TestLogHDFrozenSimilaritiesMatchLive(t *testing.T) {
	_, l, qs, _ := trainedLogHDPair(t, 9, 300, 1)
	chain := NewEpochChain(l)
	ep := chain.Acquire()
	defer ep.Release()
	img := ep.Frozen()
	live := make([]float64, l.Classes())
	froz := make([]float64, l.Classes())
	for _, q := range qs {
		l.view().SimilaritiesInto(live, q)
		img.SimilaritiesInto(froz, q)
		for c := range live {
			if live[c] != froz[c] {
				t.Fatalf("class %d: frozen similarity %v != live %v", c, froz[c], live[c])
			}
		}
	}
}
