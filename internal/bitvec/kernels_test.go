package bitvec

import (
	"math"
	"testing"

	"math/rand/v2"
)

func kernelRNG(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
}

// rotateLeftRef is the original per-bit rotation, kept as the
// behavioural reference for the word-wise kernel.
func rotateLeftRef(v *Vector, k int) *Vector {
	out := New(v.n)
	if v.n == 0 {
		return out
	}
	k = ((k % v.n) + v.n) % v.n
	for i := 0; i < v.n; i++ {
		if v.Get((i + k) % v.n) {
			out.Set(i, true)
		}
	}
	return out
}

// sliceRef is the original per-bit slice, kept as the behavioural
// reference for the word-wise kernel.
func sliceRef(v *Vector, lo, hi int) *Vector {
	out := New(hi - lo)
	for i := lo; i < hi; i++ {
		if v.Get(i) {
			out.Set(i-lo, true)
		}
	}
	return out
}

func TestRotateLeftMatchesBitwiseReference(t *testing.T) {
	rng := kernelRNG(101)
	lengths := []int{1, 2, 63, 64, 65, 127, 128, 129, 300, 1000}
	for trial := 0; trial < 20; trial++ {
		lengths = append(lengths, 1+rng.IntN(500))
	}
	for _, n := range lengths {
		v := Random(n, rng)
		shifts := []int{0, 1, n - 1, n, n + 1, 2*n + 3, -1, -n, -n - 7, 63, 64, 65}
		for trial := 0; trial < 5; trial++ {
			shifts = append(shifts, rng.IntN(3*n+1)-n)
		}
		for _, k := range shifts {
			got := v.RotateLeft(k)
			want := rotateLeftRef(v, k)
			if !got.Equal(want) {
				t.Fatalf("RotateLeft(n=%d, k=%d) diverges from bit-wise reference", n, k)
			}
		}
	}
}

func TestRotateLeftZeroLength(t *testing.T) {
	v := New(0)
	if got := v.RotateLeft(5); got.Len() != 0 {
		t.Fatalf("rotating empty vector: got length %d", got.Len())
	}
}

func TestSliceMatchesBitwiseReference(t *testing.T) {
	rng := kernelRNG(102)
	for _, n := range []int{1, 63, 64, 65, 128, 200, 515, 1000} {
		v := Random(n, rng)
		ranges := [][2]int{{0, n}, {0, 0}, {n, n}, {0, 1}, {n - 1, n}}
		for trial := 0; trial < 30; trial++ {
			lo := rng.IntN(n + 1)
			hi := lo + rng.IntN(n-lo+1)
			ranges = append(ranges, [2]int{lo, hi})
		}
		for _, r := range ranges {
			got := v.Slice(r[0], r[1])
			want := sliceRef(v, r[0], r[1])
			if !got.Equal(want) {
				t.Fatalf("Slice(n=%d, [%d,%d)) diverges from bit-wise reference", n, r[0], r[1])
			}
		}
	}
}

func TestSliceTailMasked(t *testing.T) {
	rng := kernelRNG(103)
	v := Random(1000, rng)
	s := v.Slice(3, 70) // 67 bits: partial final word must be masked
	if s.OnesCount() != v.HammingRange(New(1000), 3, 70) {
		t.Fatalf("slice popcount %d != range popcount", s.OnesCount())
	}
}

func TestHammingManyMatchesPairwise(t *testing.T) {
	rng := kernelRNG(104)
	for _, n := range []int{1, 64, 100, 4096, 10000} {
		q := Random(n, rng)
		cs := make([]*Vector, 7)
		for i := range cs {
			cs[i] = Random(n, rng)
		}
		cs[3] = q.Clone() // exact match candidate
		got := HammingMany(q, cs, nil)
		for i, cv := range cs {
			if want := q.Hamming(cv); got[i] != want {
				t.Fatalf("n=%d class %d: HammingMany %d != Hamming %d", n, i, got[i], want)
			}
		}
	}
}

func TestHammingManyReusesScratch(t *testing.T) {
	rng := kernelRNG(105)
	q := Random(256, rng)
	cs := []*Vector{Random(256, rng), Random(256, rng)}
	scratch := make([]int, 8)
	out := HammingMany(q, cs, scratch)
	if &out[0] != &scratch[0] {
		t.Fatal("HammingMany did not reuse the provided scratch")
	}
	if len(out) != len(cs) {
		t.Fatalf("out length %d, want %d", len(out), len(cs))
	}
}

func TestNearestMatchesExhaustive(t *testing.T) {
	rng := kernelRNG(106)
	for trial := 0; trial < 50; trial++ {
		n := 64 + rng.IntN(20000)
		k := 2 + rng.IntN(12)
		q := Random(n, rng)
		cs := make([]*Vector, k)
		for i := range cs {
			// Mix of near and far candidates so early-abandon engages.
			if rng.IntN(2) == 0 {
				cs[i] = q.Clone()
				cs[i].FlipBernoulli(0.05, rng)
			} else {
				cs[i] = Random(n, rng)
			}
		}
		dists := HammingMany(q, cs, nil)
		want := 0
		for i, d := range dists {
			if d < dists[want] {
				want = i
			}
		}
		if got := Nearest(q, cs, nil); got != want {
			t.Fatalf("trial %d: Nearest %d != exhaustive argmin %d (dists %v)", trial, got, want, dists)
		}
	}
}

func TestNearestTieResolvesToLowestIndex(t *testing.T) {
	rng := kernelRNG(107)
	q := Random(512, rng)
	dup := q.Clone()
	dup.FlipBernoulli(0.1, rng)
	cs := []*Vector{Random(512, rng), dup.Clone(), dup.Clone()}
	if got := Nearest(q, cs, nil); got != 1 {
		t.Fatalf("tie must resolve to lowest index 1, got %d", got)
	}
}

func TestFlipBernoulliEdgeProbabilities(t *testing.T) {
	rng := kernelRNG(108)
	v := Random(777, rng)
	orig := v.Clone()
	if got := v.FlipBernoulli(0, rng); got != 0 || !v.Equal(orig) {
		t.Fatalf("p=0 must be a no-op, flipped %d", got)
	}
	if got := v.FlipBernoulli(1, rng); got != 777 {
		t.Fatalf("p=1 must flip all %d bits, flipped %d", 777, got)
	}
	if ham := v.Hamming(orig); ham != 777 {
		t.Fatalf("p=1 left %d bits unflipped", 777-ham)
	}
}

// TestFlipBernoulliDistribution checks the geometric skip-sampler
// against the binomial flip-count law: mean n·p and standard deviation
// sqrt(n·p·(1-p)) over repeated trials.
func TestFlipBernoulliDistribution(t *testing.T) {
	rng := kernelRNG(109)
	const n, p, trials = 50000, 0.03, 40
	mean := float64(n) * p
	sd := math.Sqrt(float64(n) * p * (1 - p))
	var sum float64
	for i := 0; i < trials; i++ {
		v := New(n)
		flips := v.FlipBernoulli(p, rng)
		if v.OnesCount() != flips {
			t.Fatalf("trial %d: reported %d flips but %d bits set", i, flips, v.OnesCount())
		}
		if math.Abs(float64(flips)-mean) > 6*sd {
			t.Fatalf("trial %d: %d flips is >6σ from mean %.0f (σ=%.1f)", i, flips, mean, sd)
		}
		sum += float64(flips)
	}
	// The mean over `trials` runs has standard error sd/sqrt(trials).
	if got := sum / trials; math.Abs(got-mean) > 5*sd/math.Sqrt(trials) {
		t.Fatalf("mean flips %.1f deviates from %.1f beyond 5 standard errors", got, mean)
	}
}

// TestFlipBernoulliCoversAllPositions guards against skip-sampling
// systematically missing regions of the vector.
func TestFlipBernoulliCoversAllPositions(t *testing.T) {
	rng := kernelRNG(110)
	const n = 256
	touched := make([]bool, n)
	for trial := 0; trial < 400; trial++ {
		v := New(n)
		v.FlipBernoulli(0.05, rng)
		for i := 0; i < n; i++ {
			if v.Get(i) {
				touched[i] = true
			}
		}
	}
	for i, ok := range touched {
		if !ok {
			t.Fatalf("bit %d never flipped across 400 trials at p=0.05", i)
		}
	}
}
