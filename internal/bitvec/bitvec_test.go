package bitvec

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestNewZeroed(t *testing.T) {
	v := New(130)
	if v.Len() != 130 {
		t.Fatalf("Len = %d", v.Len())
	}
	if v.OnesCount() != 0 {
		t.Fatalf("new vector not zeroed: %d ones", v.OnesCount())
	}
}

func TestNewPanicsNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(-1)
}

func TestSetGetFlip(t *testing.T) {
	v := New(100)
	v.Set(0, true)
	v.Set(63, true)
	v.Set(64, true)
	v.Set(99, true)
	for _, i := range []int{0, 63, 64, 99} {
		if !v.Get(i) {
			t.Fatalf("bit %d should be set", i)
		}
	}
	if v.OnesCount() != 4 {
		t.Fatalf("OnesCount = %d", v.OnesCount())
	}
	v.Flip(63)
	if v.Get(63) {
		t.Fatal("flip did not clear bit 63")
	}
	v.Set(0, false)
	if v.Get(0) {
		t.Fatal("Set false failed")
	}
}

func TestIndexPanics(t *testing.T) {
	v := New(10)
	for _, f := range []func(){
		func() { v.Get(10) },
		func() { v.Set(-1, true) },
		func() { v.Flip(10) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected out-of-range panic")
				}
			}()
			f()
		}()
	}
}

func TestRandomBalanced(t *testing.T) {
	rng := stats.NewRNG(7)
	v := Random(10000, rng)
	ones := v.OnesCount()
	if ones < 4700 || ones > 5300 {
		t.Fatalf("random vector unbalanced: %d/10000 ones", ones)
	}
}

func TestRandomTailMasked(t *testing.T) {
	rng := stats.NewRNG(7)
	v := Random(65, rng) // one full word + 1 bit
	if got := v.words[1] &^ 1; got != 0 {
		t.Fatalf("tail bits not masked: %x", got)
	}
}

func TestXorSelfInverse(t *testing.T) {
	rng := stats.NewRNG(1)
	a := Random(1000, rng)
	b := Random(1000, rng)
	if got := a.Xor(b).Xor(b); !got.Equal(a) {
		t.Fatal("a^b^b != a")
	}
}

func TestXorInPlaceMatchesXor(t *testing.T) {
	rng := stats.NewRNG(2)
	a := Random(777, rng)
	b := Random(777, rng)
	want := a.Xor(b)
	c := a.Clone()
	c.XorInPlace(b)
	if !c.Equal(want) {
		t.Fatal("XorInPlace differs from Xor")
	}
	dst := New(777)
	a.XorInto(dst, b)
	if !dst.Equal(want) {
		t.Fatal("XorInto differs from Xor")
	}
}

func TestAndOrNot(t *testing.T) {
	a := FromBools([]bool{true, true, false, false})
	b := FromBools([]bool{true, false, true, false})
	if got := a.And(b); got.OnesCount() != 1 || !got.Get(0) {
		t.Fatalf("And wrong: %v", got)
	}
	if got := a.Or(b); got.OnesCount() != 3 || got.Get(3) {
		t.Fatalf("Or wrong: %v", got)
	}
	n := a.Not()
	if n.OnesCount() != 2 || !n.Get(2) || !n.Get(3) {
		t.Fatalf("Not wrong: %v", n)
	}
}

func TestNotMasksTail(t *testing.T) {
	v := New(3)
	n := v.Not()
	if n.OnesCount() != 3 {
		t.Fatalf("Not of 3-bit zero should have 3 ones, got %d", n.OnesCount())
	}
}

func TestHammingBasic(t *testing.T) {
	a := FromBools([]bool{true, false, true, false})
	b := FromBools([]bool{true, true, false, false})
	if d := a.Hamming(b); d != 2 {
		t.Fatalf("Hamming = %d, want 2", d)
	}
	if s := a.Similarity(b); s != 0.5 {
		t.Fatalf("Similarity = %v, want 0.5", s)
	}
	if a.Similarity(a) != 1 {
		t.Fatal("self similarity != 1")
	}
}

func TestHammingRandomPairNearHalf(t *testing.T) {
	rng := stats.NewRNG(11)
	a := Random(10000, rng)
	b := Random(10000, rng)
	d := a.Hamming(b)
	if d < 4700 || d > 5300 {
		t.Fatalf("random pair Hamming = %d, want ~5000", d)
	}
}

func TestHammingRangeSumsToTotal(t *testing.T) {
	rng := stats.NewRNG(3)
	a := Random(1037, rng) // deliberately not word-aligned
	b := Random(1037, rng)
	total := a.Hamming(b)
	chunks := 7
	sum := 0
	for c := 0; c < chunks; c++ {
		lo := c * 1037 / chunks
		hi := (c + 1) * 1037 / chunks
		sum += a.HammingRange(b, lo, hi)
	}
	if sum != total {
		t.Fatalf("chunked Hamming %d != total %d", sum, total)
	}
}

func TestHammingRangeMatchesSlice(t *testing.T) {
	rng := stats.NewRNG(4)
	a := Random(300, rng)
	b := Random(300, rng)
	for _, r := range [][2]int{{0, 300}, {0, 64}, {64, 128}, {13, 97}, {250, 300}, {50, 50}} {
		want := a.Slice(r[0], r[1]).Hamming(b.Slice(r[0], r[1]))
		if got := a.HammingRange(b, r[0], r[1]); got != want {
			t.Fatalf("HammingRange(%d,%d) = %d, want %d", r[0], r[1], got, want)
		}
	}
}

func TestSimilarityRange(t *testing.T) {
	a := New(10)
	b := New(10)
	b.Set(5, true)
	if got := a.SimilarityRange(b, 0, 5); got != 1 {
		t.Fatalf("clean range similarity = %v", got)
	}
	if got := a.SimilarityRange(b, 5, 10); got != 0.8 {
		t.Fatalf("dirty range similarity = %v", got)
	}
	if got := a.SimilarityRange(b, 3, 3); got != 1 {
		t.Fatalf("empty range similarity = %v", got)
	}
}

func TestFlipRandomExactCount(t *testing.T) {
	rng := stats.NewRNG(5)
	v := New(500)
	v.FlipRandom(37, rng)
	if v.OnesCount() != 37 {
		t.Fatalf("FlipRandom flipped %d bits, want 37", v.OnesCount())
	}
}

func TestFlipRandomAllBits(t *testing.T) {
	rng := stats.NewRNG(6)
	v := New(100)
	v.FlipRandom(100, rng)
	if v.OnesCount() != 100 {
		t.Fatalf("flipping all bits left %d ones", v.OnesCount())
	}
}

func TestFlipBernoulliRate(t *testing.T) {
	rng := stats.NewRNG(8)
	v := New(20000)
	flips := v.FlipBernoulli(0.1, rng)
	if flips != v.OnesCount() {
		t.Fatalf("reported %d flips but vector has %d ones", flips, v.OnesCount())
	}
	if flips < 1800 || flips > 2200 {
		t.Fatalf("Bernoulli(0.1) flipped %d/20000", flips)
	}
}

func TestSubstituteRangeConverges(t *testing.T) {
	rng := stats.NewRNG(9)
	a := Random(2000, rng)
	b := Random(2000, rng)
	before := a.Hamming(b)
	for i := 0; i < 50; i++ {
		a.SubstituteRange(b, 0, 2000, 0.2, rng)
	}
	after := a.Hamming(b)
	if after >= before/10 {
		t.Fatalf("substitution did not converge: before=%d after=%d", before, after)
	}
}

func TestSubstituteRangeOnlyTouchesRange(t *testing.T) {
	rng := stats.NewRNG(10)
	a := New(100)
	b := New(100)
	for i := 0; i < 100; i++ {
		b.Set(i, true)
	}
	a.SubstituteRange(b, 20, 40, 1.0, rng)
	for i := 0; i < 100; i++ {
		want := i >= 20 && i < 40
		if a.Get(i) != want {
			t.Fatalf("bit %d = %v, want %v", i, a.Get(i), want)
		}
	}
}

func TestOverwriteRangeMatchesSubstituteP1(t *testing.T) {
	rng := stats.NewRNG(12)
	src := Random(513, rng)
	a := Random(513, rng)
	b := a.Clone()
	a.SubstituteRange(src, 31, 497, 1.0, rng)
	b.OverwriteRange(src, 31, 497)
	if !a.Equal(b) {
		t.Fatal("OverwriteRange differs from SubstituteRange(p=1)")
	}
}

// TestSubstituteRangeMaskLaw checks the word-parallel mask's law: over
// many random unaligned ranges the copy count stays within 5σ of the
// binomial, only [lo, hi) of v changes, src never does, and the return
// value is the number of positions copied. v starts as src's
// complement, so every copied position is visible.
func TestSubstituteRangeMaskLaw(t *testing.T) {
	rng := stats.NewRNG(13)
	const n = 100003
	for _, p := range []float64{1.0 / (1 << 20), 0.25, 0.3, 1.0 / 3, 0.5, 1} {
		target := 1 << 22
		if p < 0.01 {
			target = 1 << 27 // about 128 expected copies
		}
		total, copies := 0, 0
		for trial := 0; total < target; trial++ {
			lo, hi := rng.IntN(n+1), 0
			hi = lo + rng.IntN(n-lo+1)
			switch trial {
			case 0:
				lo, hi = 0, n
			case 1:
				lo, hi = 70, 100 // inside one word
			case 2:
				lo, hi = 64, 128 // one whole word
			case 3:
				lo, hi = 5, 5 // empty
			}
			src := Random(n, rng)
			srcBefore := src.Clone()
			v := src.Not()
			before := v.Clone()
			got := v.SubstituteRange(src, lo, hi, p, rng)
			if !src.Equal(srcBefore) {
				t.Fatalf("p=%v [%d,%d): src changed", p, lo, hi)
			}
			if v.HammingRange(before, 0, lo) != 0 || v.HammingRange(before, hi, n) != 0 {
				t.Fatalf("p=%v [%d,%d): bits outside the range changed", p, lo, hi)
			}
			copied := hi - lo - v.HammingRange(src, lo, hi)
			if got != copied {
				t.Fatalf("p=%v [%d,%d): returned %d, copied %d", p, lo, hi, got, copied)
			}
			total += hi - lo
			copies += copied
		}
		mean := p * float64(total)
		sigma := math.Sqrt(float64(total) * p * (1 - p))
		if math.Abs(float64(copies)-mean) > 5*sigma+1e-9 {
			t.Errorf("p=%v: %d copies over %d bits, want %.1f ± 5·%.1f", p, copies, total, mean, sigma)
		}
	}
}

// TestSubstituteRangeCopiesNothingAtZero: p = 0 leaves v alone.
func TestSubstituteRangeCopiesNothingAtZero(t *testing.T) {
	rng := stats.NewRNG(14)
	src := Random(300, rng)
	v := src.Not()
	before := v.Clone()
	if got := v.SubstituteRange(src, 3, 290, 0, rng); got != 0 || !v.Equal(before) {
		t.Fatalf("p=0 copied %d positions", got)
	}
}

// TestProbabilityOutOfRangePanics pins the NaN refusal: NaN compares
// false against both bounds, so it must be refused by the documented
// panic rather than indexing past the vector (FlipBernoulli) or
// silently copying nothing (SubstituteRange).
func TestProbabilityOutOfRangePanics(t *testing.T) {
	rng := stats.NewRNG(15)
	for _, p := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.1, 1.1} {
		for name, fn := range map[string]func(){
			"FlipBernoulli":   func() { New(1000).FlipBernoulli(p, rng) },
			"SubstituteRange": func() { New(1000).SubstituteRange(New(1000), 0, 1000, p, rng) },
		} {
			func() {
				defer func() {
					if r := recover(); r != "bitvec: probability out of range" {
						t.Fatalf("%s(%v) panicked with %v", name, p, r)
					}
				}()
				fn()
			}()
		}
	}
}

// TestOverwriteSliceInvertsSlice drives the chunk push/pull pair over
// many unaligned ranges: writing Slice(lo, hi) back via OverwriteSlice
// must be the identity, and writing a foreign slice must change
// exactly [lo, hi) to the foreign bits, verified per bit.
func TestOverwriteSliceInvertsSlice(t *testing.T) {
	rng := stats.NewRNG(21)
	v := Random(709, rng)
	other := Random(709, rng)
	for _, r := range [][2]int{{0, 709}, {0, 64}, {64, 128}, {31, 97}, {63, 65}, {700, 709}, {128, 129}, {5, 700}} {
		lo, hi := r[0], r[1]
		id := v.Clone()
		id.OverwriteSlice(v.Slice(lo, hi), lo)
		if !id.Equal(v) {
			t.Fatalf("[%d,%d): OverwriteSlice(Slice()) is not identity", lo, hi)
		}
		got := v.Clone()
		got.OverwriteSlice(other.Slice(lo, hi), lo)
		want := v.Clone()
		want.OverwriteRange(other, lo, hi)
		if !got.Equal(want) {
			t.Fatalf("[%d,%d): OverwriteSlice differs from OverwriteRange", lo, hi)
		}
	}
	// Zero-length slice is a no-op.
	z := v.Clone()
	z.OverwriteSlice(New(0), 100)
	if !z.Equal(v) {
		t.Fatal("zero-length OverwriteSlice changed bits")
	}
}

func TestRotateLeftInverse(t *testing.T) {
	rng := stats.NewRNG(13)
	v := Random(101, rng)
	r := v.RotateLeft(17).RotateLeft(101 - 17)
	if !r.Equal(v) {
		t.Fatal("rotate by k then n-k is not identity")
	}
	if !v.RotateLeft(0).Equal(v) {
		t.Fatal("rotate by 0 changed vector")
	}
	if !v.RotateLeft(-17).Equal(v.RotateLeft(101 - 17)) {
		t.Fatal("negative rotation mismatch")
	}
}

func TestRotatePreservesOnes(t *testing.T) {
	rng := stats.NewRNG(14)
	v := Random(333, rng)
	if v.RotateLeft(45).OnesCount() != v.OnesCount() {
		t.Fatal("rotation changed population count")
	}
}

func TestSliceRoundTrip(t *testing.T) {
	rng := stats.NewRNG(15)
	v := Random(200, rng)
	s := v.Slice(50, 150)
	if s.Len() != 100 {
		t.Fatalf("slice len = %d", s.Len())
	}
	for i := 0; i < 100; i++ {
		if s.Get(i) != v.Get(50+i) {
			t.Fatalf("slice bit %d mismatch", i)
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	rng := stats.NewRNG(16)
	v := Random(64, rng)
	c := v.Clone()
	c.Flip(0)
	if v.Equal(c) {
		t.Fatal("clone aliases original")
	}
}

func TestCopyFrom(t *testing.T) {
	rng := stats.NewRNG(17)
	v := Random(64, rng)
	dst := New(64)
	dst.CopyFrom(v)
	if !dst.Equal(v) {
		t.Fatal("CopyFrom mismatch")
	}
}

func TestEqualLengthMismatch(t *testing.T) {
	if New(10).Equal(New(11)) {
		t.Fatal("different lengths reported equal")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	rng := stats.NewRNG(18)
	v := Random(1234, rng)
	data, err := v.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var out Vector
	if err := out.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if !out.Equal(v) {
		t.Fatal("round trip mismatch")
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	var v Vector
	if err := v.UnmarshalBinary([]byte{1, 2, 3}); err == nil {
		t.Fatal("short input accepted")
	}
	data, _ := New(64).MarshalBinary()
	data[0] ^= 0xFF
	if err := v.UnmarshalBinary(data); err == nil {
		t.Fatal("bad magic accepted")
	}
	good, _ := New(64).MarshalBinary()
	if err := v.UnmarshalBinary(good[:len(good)-1]); err == nil {
		t.Fatal("truncated body accepted")
	}
}

func TestStringTruncates(t *testing.T) {
	v := New(100)
	s := v.String()
	if len(s) == 0 {
		t.Fatal("empty string render")
	}
	short := New(4)
	short.Set(1, true)
	if short.String() != "0100" {
		t.Fatalf("String = %q", short.String())
	}
}

// Property: Hamming distance is a metric (symmetry + triangle
// inequality) on random vectors.
func TestHammingMetricProperties(t *testing.T) {
	rng := stats.NewRNG(19)
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		a := Random(256, r)
		b := Random(256, r)
		c := Random(256, r)
		if a.Hamming(b) != b.Hamming(a) {
			return false
		}
		if a.Hamming(a) != 0 {
			return false
		}
		return a.Hamming(c) <= a.Hamming(b)+b.Hamming(c)
	}
	cfg := &quick.Config{MaxCount: 50, Rand: nil}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
	_ = rng
}

// Property: XOR distributes over Hamming distance:
// Hamming(a^x, b^x) == Hamming(a, b) (binding preserves distances).
func TestBindingPreservesDistance(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		a := Random(512, r)
		b := Random(512, r)
		x := Random(512, r)
		return a.Xor(x).Hamming(b.Xor(x)) == a.Hamming(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestZeroLengthVector(t *testing.T) {
	v := New(0)
	o := New(0)
	if v.Hamming(o) != 0 || v.Similarity(o) != 1 || !v.Equal(o) {
		t.Fatal("zero-length vector misbehaves")
	}
	if !v.RotateLeft(5).Equal(v) {
		t.Fatal("zero-length rotate misbehaves")
	}
}

// TestNewManyIndependentVectors checks that vectors carved from one
// backing array have their own lengths and bits, and that SliceInto
// matches Slice on each of them.
func TestNewManyIndependentVectors(t *testing.T) {
	lens := []int{0, 1, 63, 64, 65, 156, 157, 10}
	vs := NewMany(lens)
	if len(vs) != len(lens) {
		t.Fatalf("%d vectors for %d lengths", len(vs), len(lens))
	}
	rng := stats.NewRNG(41)
	src := Random(400, rng)
	for i, v := range vs {
		if v.Len() != lens[i] || v.OnesCount() != 0 {
			t.Fatalf("vector %d: len %d ones %d, want len %d zeroed", i, v.Len(), v.OnesCount(), lens[i])
		}
		src.SliceInto(v, 7*i)
		if !v.Equal(src.Slice(7*i, 7*i+lens[i])) {
			t.Fatalf("vector %d: SliceInto differs from Slice", i)
		}
	}
	for i, v := range vs {
		if !v.Equal(src.Slice(7*i, 7*i+lens[i])) {
			t.Fatalf("vector %d: overwritten by a neighbour", i)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative length accepted")
		}
	}()
	NewMany([]int{3, -1})
}
