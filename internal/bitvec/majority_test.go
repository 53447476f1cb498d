package bitvec

import (
	"math/rand/v2"
	"testing"
)

// majorityRef is the per-bit reference MajorityInto is checked
// against: count votes, strict majority wins, ties go to vs[0].
func majorityRef(vs []*Vector) *Vector {
	out := New(vs[0].Len())
	for i := 0; i < vs[0].Len(); i++ {
		ones := 0
		for _, v := range vs {
			if v.Get(i) {
				ones++
			}
		}
		switch {
		case 2*ones > len(vs):
			out.Set(i, true)
		case 2*ones == len(vs):
			out.Set(i, vs[0].Get(i))
		}
	}
	return out
}

// TestMajorityMatchesReference holds every fan-in path (copy, the 3-
// and 5-way formulas, the bit-sliced counter) to the per-bit
// reference on random vectors.
func TestMajorityMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 0))
	for _, n := range []int{1, 2, 3, 4, 5, 6, 8, 11} {
		// Odd lengths exercise the tail word; >64 exercises multi-word.
		for _, dims := range []int{1, 63, 64, 65, 200, 1000} {
			vs := make([]*Vector, n)
			for i := range vs {
				vs[i] = Random(dims, rng)
			}
			got := Majority(vs)
			want := majorityRef(vs)
			if !got.Equal(want) {
				t.Fatalf("n=%d dims=%d: majority disagrees with per-bit reference", n, dims)
			}
			// Aliasing dst with a voter must give the same answer.
			aliased := vs[n-1]
			MajorityInto(aliased, vs)
			if !aliased.Equal(want) {
				t.Fatalf("n=%d dims=%d: aliased MajorityInto disagrees", n, dims)
			}
		}
	}
}

// TestKernelMajorityEquivalence holds the vote to the per-bit rule at
// every fan-in from 1 to 9 on all-zeros, all-ones, alternating and
// random vectors, whose votes tie or saturate where random bits rarely
// do. The vote is portable Go in no kernel table, so it runs once
// rather than per dispatch tier.
func TestKernelMajorityEquivalence(t *testing.T) {
	rng := kernelRNG(206)
	for _, n := range []int{1, 64, 65, 513, 4097} {
		for fanIn := 1; fanIn <= 9; fanIn++ {
			vs := make([]*Vector, fanIn)
			for i := range vs {
				vs[i] = patternedVector(n, (i+fanIn)%5, rng)
			}
			got := Majority(vs)
			if want := majorityRef(vs); !got.Equal(want) {
				t.Fatalf("n=%d fanIn=%d: majority disagrees with per-bit reference", n, fanIn)
			}
			// Aliasing contract: dst may be one of the voters.
			alias := vs[0].Clone()
			MajorityInto(alias, append([]*Vector{alias}, vs[1:]...))
			if !alias.Equal(got) {
				t.Fatalf("n=%d fanIn=%d: aliased MajorityInto diverges", n, fanIn)
			}
		}
	}
}

func TestMajorityTieTakesIncumbent(t *testing.T) {
	a, b := New(130), New(130)
	for i := 0; i < 130; i += 3 {
		a.Set(i, true) // a and b disagree on every third bit: 1-1 ties
	}
	got := Majority([]*Vector{a, b})
	if !got.Equal(a) {
		t.Fatalf("2-way tie did not resolve to vs[0]")
	}
	// 4 voters, 2-2 split on the stride bits.
	c, d := a.Clone(), b.Clone()
	got = Majority([]*Vector{a, b, c, d})
	if !got.Equal(majorityRef([]*Vector{a, b, c, d})) {
		t.Fatalf("4-way tie disagrees with reference")
	}
	if !got.Equal(a) {
		t.Fatalf("2-2 tie did not resolve to vs[0]'s bits")
	}
}

func TestMajorityUnanimous(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 0))
	v := Random(777, rng)
	for _, n := range []int{1, 3, 5, 7} {
		vs := make([]*Vector, n)
		for i := range vs {
			vs[i] = v.Clone()
		}
		if got := Majority(vs); !got.Equal(v) {
			t.Fatalf("n=%d: unanimous majority is not the common vector", n)
		}
	}
}

// TestMajorityOutvotesMinority is the anti-entropy contract: with 3
// replicas and one arbitrarily corrupted, the majority equals the two
// healthy copies exactly.
func TestMajorityOutvotesMinority(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 0))
	healthy := Random(4096, rng)
	corrupt := healthy.Clone()
	corrupt.FlipBernoulli(0.3, rng)
	for pos := 0; pos < 3; pos++ {
		vs := []*Vector{healthy.Clone(), healthy.Clone(), healthy.Clone()}
		vs[pos] = corrupt.Clone()
		if got := Majority(vs); !got.Equal(healthy) {
			t.Fatalf("minority at position %d leaked into the majority", pos)
		}
	}
}

func TestMajorityPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("empty", func() { Majority(nil) })
	mustPanic("mismatched", func() {
		MajorityInto(New(64), []*Vector{New(64), New(65)})
	})
	mustPanic("too many", func() {
		vs := make([]*Vector, maxMajorityVectors+1)
		for i := range vs {
			vs[i] = New(64)
		}
		MajorityInto(New(64), vs)
	})
}
