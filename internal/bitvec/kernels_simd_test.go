package bitvec

import (
	"testing"

	"math/rand/v2"
)

// The SIMD equivalence suite: every kernel table registered on this
// CPU (portable, avx2, avx512popcnt, neon, ...) must be bit-identical
// to the portable reference on every entry point, across random
// lengths, tail words, subslice offsets, and degenerate all-ones /
// all-zeros patterns. Under `-tags purego` only the portable table is
// registered and the suite degenerates to self-consistency.

// forEachKernel runs f once per registered kernel table, restoring the
// auto-selected table afterwards.
func forEachKernel(t *testing.T, f func(t *testing.T, name string)) {
	t.Helper()
	prev := KernelName()
	defer func() {
		if err := UseKernels(prev); err != nil {
			t.Fatal(err)
		}
	}()
	for _, name := range AvailableKernels() {
		if err := UseKernels(name); err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) { f(t, name) })
	}
}

// kernelTestLengths covers word-boundary straddles, the 4-word SIMD
// granularity, the 64-word Harley-Seal block, and the 512-word
// Hamming block edge on both sides.
func kernelTestLengths() []int {
	return []int{0, 1, 63, 64, 65, 127, 128, 129, 255, 256, 257,
		511, 512, 513, 4095, 4096, 4097, 10000,
		64*64 - 1, 64 * 64, 64*64 + 1, 512*64 + 65}
}

// patternedVector builds vectors beyond uniform random: all-zeros,
// all-ones, and alternating edge words exercise carry chains that
// random bits rarely saturate.
func patternedVector(n int, kind int, rng *rand.Rand) *Vector {
	v := New(n)
	switch kind {
	case 0:
		return v // all zeros
	case 1:
		for i := range v.words {
			v.words[i] = ^uint64(0)
		}
		v.maskTail()
	case 2:
		for i := range v.words {
			v.words[i] = 0xAAAAAAAAAAAAAAAA
		}
		v.maskTail()
	default:
		for i := range v.words {
			v.words[i] = rng.Uint64()
		}
		v.maskTail()
	}
	return v
}

func hammingRef(a, b *Vector) int {
	d := 0
	for i := 0; i < a.n; i++ {
		if a.Get(i) != b.Get(i) {
			d++
		}
	}
	return d
}

func TestKernelPopcntXorEquivalence(t *testing.T) {
	forEachKernel(t, func(t *testing.T, name string) {
		rng := kernelRNG(201)
		for _, n := range kernelTestLengths() {
			if n > 5000 && testing.Short() {
				continue
			}
			for kind := 0; kind < 4; kind++ {
				a := patternedVector(n, kind, rng)
				b := patternedVector(n, 3-kind, rng)
				want := popcntXorGo(a.words, b.words)
				if got := a.Hamming(b); got != want {
					t.Fatalf("n=%d kind=%d: Hamming %d != portable %d", n, kind, got, want)
				}
				if n <= 2048 {
					if got, w2 := a.Hamming(b), hammingRef(a, b); got != w2 {
						t.Fatalf("n=%d kind=%d: Hamming %d != per-bit %d", n, kind, got, w2)
					}
				}
			}
		}
		// Unaligned subslices: the kernels must not assume 32-byte
		// alignment of the first word.
		rngs := kernelRNG(202)
		base := Random(4096, rngs)
		other := Random(4096, rngs)
		for off := 0; off < 8; off++ {
			for end := len(base.words) - 7; end <= len(base.words); end++ {
				if off > end {
					continue
				}
				aw, bw := base.words[off:end], other.words[off:end]
				if got, want := kern.popcntXor(aw, bw), popcntXorGo(aw, bw); got != want {
					t.Fatalf("subslice [%d:%d]: %d != %d", off, end, got, want)
				}
			}
		}
	})
}

func TestKernelHammingManyAndNearestEquivalence(t *testing.T) {
	forEachKernel(t, func(t *testing.T, name string) {
		rng := kernelRNG(203)
		for _, n := range []int{1, 64, 157*64 + 16, 10000, 512*64 + 65} {
			q := Random(n, rng)
			cs := make([]*Vector, 9)
			for i := range cs {
				cs[i] = Random(n, rng)
			}
			cs[4] = q.Clone()
			got := HammingMany(q, cs, nil)
			for i, cv := range cs {
				if want := popcntXorGo(q.words, cv.words); got[i] != want {
					t.Fatalf("n=%d class %d: HammingMany %d != portable %d", n, i, got[i], want)
				}
			}
			wantBest := 0
			for i, d := range got {
				if d < got[wantBest] {
					wantBest = i
				}
			}
			if best := Nearest(q, cs, nil); best != wantBest {
				t.Fatalf("n=%d: Nearest %d != argmin %d", n, best, wantBest)
			}
		}
	})
}

func TestKernelHammingRangeEquivalence(t *testing.T) {
	forEachKernel(t, func(t *testing.T, name string) {
		rng := kernelRNG(204)
		for _, n := range []int{1, 64, 65, 1000, 4097, 10000} {
			a := Random(n, rng)
			b := Random(n, rng)
			ranges := [][2]int{{0, n}, {0, 0}, {n, n}, {0, 1}, {n - 1, n}, {n / 3, 2 * n / 3}}
			for trial := 0; trial < 40; trial++ {
				lo := rng.IntN(n + 1)
				hi := lo + rng.IntN(n-lo+1)
				ranges = append(ranges, [2]int{lo, hi})
			}
			for _, r := range ranges {
				lo, hi := r[0], r[1]
				want := 0
				for i := lo; i < hi; i++ {
					if a.Get(i) != b.Get(i) {
						want++
					}
				}
				if got := a.HammingRange(b, lo, hi); got != want {
					t.Fatalf("n=%d [%d,%d): HammingRange %d != per-bit %d", n, lo, hi, got, want)
				}
			}
		}
	})
}

func TestKernelCounterAddScaledEquivalence(t *testing.T) {
	forEachKernel(t, func(t *testing.T, name string) {
		rng := kernelRNG(207)
		for _, n := range []int{1, 63, 64, 65, 129, 1000, 4097} {
			c := NewCounter(n)
			type op struct {
				v *Vector
				w int32
			}
			ops := []op{}
			for trial := 0; trial < 6; trial++ {
				ops = append(ops, op{patternedVector(n, trial%5, rng), [...]int32{1, -1, 3, -7, 1 << 30, 1}[trial]})
			}
			for _, o := range ops {
				c.addScaled(o.v, o.w)
			}
			for i := 0; i < n; i += 1 + n/31 {
				var want int32
				for _, o := range ops {
					if o.v.Get(i) {
						want += o.w
					} else {
						want -= o.w
					}
				}
				if got := c.Tally(i); got != want {
					t.Fatalf("n=%d dim %d: tally %d != %d", n, i, got, want)
				}
			}
		}
	})
}

// bindMajorityRef is the per-bit reference of BindMemory.MajorityInto:
// count the binds one bit at a time, then take the majority with the
// even-dimension tie rule.
func bindMajorityRef(items, levels []*Vector, lv []int32) *Vector {
	n := items[0].Len()
	out := New(n)
	for i := 0; i < n; i++ {
		c := 0
		for k, it := range items {
			if it.Get(i) != levels[lv[k]].Get(i) {
				c++
			}
		}
		out.Set(i, 2*c > len(items) || 2*c == len(items) && i%2 == 0)
	}
	return out
}

func TestKernelBindMajorityEquivalence(t *testing.T) {
	forEachKernel(t, func(t *testing.T, name string) {
		rng := kernelRNG(210)
		for _, n := range []int{1, 63, 64, 65, 100, 257, 10000} {
			// Feature counts straddle the 16-row block (zero-row
			// padding), reach every top plane from 4 to 10, include
			// even counts (ties) and, at small n, cross the register
			// planes' 2032-row sweep into the plane-merging path.
			counts := []int{1, 2, 15, 16, 17, 64, 75, 200, 300, 617}
			if n <= 257 {
				counts = append(counts, 2032, 2033, 2048, 4100)
			}
			for _, features := range counts {
				levels := make([]*Vector, 5)
				for l := range levels {
					levels[l] = patternedVector(n, l%4, rng)
				}
				items := make([]*Vector, features)
				for k := range items {
					items[k] = patternedVector(n, k%5, rng)
				}
				m := NewBindMemory(items, levels)
				const samples = 3
				lv := make([]int32, samples*features)
				for j := range lv {
					lv[j] = int32(rng.IntN(len(levels)))
				}
				// Sample 1 binds every item to the all-zeros level: the
				// all-ones items (every fifth) saturate no plane, but a
				// count of exactly half is reachable at even counts.
				for k := 0; k < features; k++ {
					lv[features+k] = 0
				}
				dsts := make([]*Vector, samples)
				for i := range dsts {
					dsts[i] = Random(n, rng)
				}
				m.MajorityInto(dsts, lv, &BindScratch{})
				for i, got := range dsts {
					if want := bindMajorityRef(items, levels, lv[i*features:(i+1)*features]); !got.Equal(want) {
						t.Fatalf("n=%d features=%d sample %d: bind majority diverges from the per-bit reference", n, features, i)
					}
				}
				// Saturated counts: all-ones items bound to the all-zeros
				// level count every feature in every bit, filling the top
				// plane; bound to all-ones they count nothing; half of each
				// ties at even counts.
				ones := patternedVector(n, 1, rng)
				for k := range items {
					items[k] = ones
				}
				m = NewBindMemory(items, levels[:2])
				for k := 0; k < features; k++ {
					lv[k], lv[features+k], lv[2*features+k] = 0, 1, int32(k%2)
				}
				m.MajorityInto(dsts, lv, &BindScratch{})
				for i, got := range dsts {
					if want := bindMajorityRef(items, levels, lv[i*features:(i+1)*features]); !got.Equal(want) {
						t.Fatalf("n=%d features=%d saturated sample %d: bind majority diverges from the per-bit reference", n, features, i)
					}
				}
			}
		}
	})
}

// TestNearestEarlyAbandonSurvivesSIMD instruments the dispatched
// popcount kernel with a word counter and proves the vectorized path
// still abandons hopeless candidates between SIMD blocks: with one
// near candidate among many far ones at multi-block dimensionality,
// Nearest must score strictly fewer words than the full HammingMany
// scan while returning the identical argmin.
func TestNearestEarlyAbandonSurvivesSIMD(t *testing.T) {
	rng := kernelRNG(208)
	const n = 512 * 64 * 8 // 8 Hamming blocks of 512 words
	q := Random(n, rng)
	cs := make([]*Vector, 16)
	for i := range cs {
		cs[i] = q.Clone()
		if i == 3 {
			cs[i].FlipBernoulli(0.01, rng) // the clear winner
		} else {
			cs[i].FlipBernoulli(0.99, rng) // nearly maximally far
		}
	}

	var wordsScored int
	counting := kern
	inner := kern.popcntXor
	counting.popcntXor = func(a, b []uint64) int {
		wordsScored += len(a)
		return inner(a, b)
	}
	prev := setKernelTable(counting)
	defer setKernelTable(prev)

	HammingMany(q, cs, nil)
	fullScan := wordsScored

	wordsScored = 0
	if got := Nearest(q, cs, nil); got != 3 {
		t.Fatalf("Nearest picked %d, want 3", got)
	}
	abandoned := wordsScored
	// The conservative bound (partial distance > min + bits remaining)
	// provably cannot fire before the scan midpoint — the unseen bits
	// could all favor the trailing candidate — so the floor is ~50% of
	// the full scan even with maximally far decoys. With 0.98n
	// separation the decoys die after block 5 of 8: 5 blocks × 16
	// candidates + 3 blocks × 1 winner = 83 of 128 block-scans (65%).
	// Anything above 75% means block-level abandonment stopped engaging.
	if abandoned*4 >= fullScan*3 {
		t.Fatalf("early abandon lost: Nearest scored %d of %d words", abandoned, fullScan)
	}
	t.Logf("Nearest scored %d words vs %d full scan (%.1f%%)",
		abandoned, fullScan, 100*float64(abandoned)/float64(fullScan))
}

// TestKernelDispatchReporting pins the dispatch surface: the portable
// table is always registered first, the active table is one of the
// registered ones, and unknown names are rejected.
func TestKernelDispatchReporting(t *testing.T) {
	names := AvailableKernels()
	if len(names) == 0 || names[0] != "portable" {
		t.Fatalf("AvailableKernels must lead with portable, got %v", names)
	}
	active := KernelName()
	found := false
	for _, n := range names {
		if n == active {
			found = true
		}
	}
	if !found {
		t.Fatalf("active kernel %q not in %v", active, names)
	}
	if err := UseKernels("no-such-kernel"); err == nil {
		t.Fatal("UseKernels must reject unknown names")
	}
	if KernelName() != active {
		t.Fatalf("failed UseKernels changed the active table to %q", KernelName())
	}
}

// evenBounds splits [0, n) into m chunks the way recovery does.
func evenBounds(n, m int) []int {
	b := make([]int, m+1)
	for j := range b {
		b[j] = j * n / m
	}
	return b
}

// checkHammingChunks compares every table entry with HammingRange over
// the same chunk.
func checkHammingChunks(t *testing.T, q *Vector, cs []*Vector, bounds []int) {
	t.Helper()
	m := len(bounds) - 1
	table := HammingChunks(q, cs, bounds, nil)
	if len(table) != len(cs)*m {
		t.Fatalf("n=%d: table has %d entries, want %d", q.n, len(table), len(cs)*m)
	}
	for i, cv := range cs {
		for j := 0; j < m; j++ {
			if want := q.HammingRange(cv, bounds[j], bounds[j+1]); table[i*m+j] != want {
				t.Fatalf("n=%d class %d chunk [%d,%d): %d != HammingRange %d",
					q.n, i, bounds[j], bounds[j+1], table[i*m+j], want)
			}
		}
	}
}

func TestHammingChunksMatchesHammingRange(t *testing.T) {
	forEachKernel(t, func(t *testing.T, name string) {
		rng := kernelRNG(205)
		for _, n := range []int{1, 63, 64, 65, 777, 1000, 10000} {
			q := Random(n, rng)
			cs := []*Vector{q.Clone(), Random(n, rng), patternedVector(n, 0, rng),
				patternedVector(n, 1, rng), patternedVector(n, 2, rng)}
			cs[0].FlipBernoulli(0.1, rng)
			for _, m := range []int{1, 3, 10, 13, 64, n} {
				if m <= n {
					checkHammingChunks(t, q, cs, evenBounds(n, m))
				}
			}
			// Uneven bounds with empty chunks and word-aligned cuts.
			for trial := 0; trial < 20; trial++ {
				bounds := []int{rng.IntN(n + 1)}
				for len(bounds) < 2+rng.IntN(12) {
					last := bounds[len(bounds)-1]
					next := last + rng.IntN(n-last+1)
					if rng.IntN(3) == 0 {
						next = min(n, (next+wordBits-1)/wordBits*wordBits)
					}
					bounds = append(bounds, next)
				}
				checkHammingChunks(t, q, cs, bounds)
			}
		}
	})
}

func TestHammingChunksReusesOutAndRejectsBadBounds(t *testing.T) {
	rng := kernelRNG(206)
	q := Random(1000, rng)
	cs := []*Vector{Random(1000, rng), Random(1000, rng)}
	out := make([]int, 64)
	bounds := evenBounds(1000, 10)
	if got := HammingChunks(q, cs, bounds, out); &got[0] != &out[0] || len(got) != 20 {
		t.Fatal("HammingChunks did not fill the caller's table in place")
	}
	if n := testing.AllocsPerRun(10, func() { HammingChunks(q, cs, bounds, out) }); n != 0 {
		t.Fatalf("HammingChunks allocated %.0f times with a large enough table", n)
	}
	for _, bounds := range [][]int{{}, {-1, 10}, {0, 1001}, {0, 500, 400, 1000}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("bounds %v accepted", bounds)
				}
			}()
			HammingChunks(q, cs, bounds, nil)
		}()
	}
}
