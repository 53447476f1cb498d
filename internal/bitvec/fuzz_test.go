package bitvec

import (
	"bytes"
	"math/rand/v2"
	"testing"
)

// FuzzUnmarshalBinary feeds arbitrary bytes to the vector decoder: it
// must reject garbage with an error, never panic, and round-trip
// anything it accepts.
func FuzzUnmarshalBinary(f *testing.F) {
	valid, _ := New(100).MarshalBinary()
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte{0x43, 0x56, 0x44, 0x48, 0, 0, 0, 0}) // magic, truncated
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		var v Vector
		if err := v.UnmarshalBinary(data); err != nil {
			return
		}
		// Accepted input must round-trip bit-exactly.
		out, err := v.MarshalBinary()
		if err != nil {
			t.Fatalf("re-marshal failed: %v", err)
		}
		var v2 Vector
		if err := v2.UnmarshalBinary(out); err != nil {
			t.Fatalf("re-unmarshal failed: %v", err)
		}
		if !v.Equal(&v2) {
			t.Fatal("round trip not stable")
		}
	})
}

// FuzzRangeOps drives the chunked primitives with arbitrary ranges and
// checks HammingRange against the Slice-based reference.
func FuzzRangeOps(f *testing.F) {
	f.Add(uint16(300), uint16(10), uint16(200))
	f.Add(uint16(64), uint16(0), uint16(64))
	f.Add(uint16(1), uint16(0), uint16(1))
	f.Fuzz(func(t *testing.T, nRaw, loRaw, hiRaw uint16) {
		n := int(nRaw)%1024 + 1
		lo := int(loRaw) % (n + 1)
		hi := lo + int(hiRaw)%(n-lo+1)
		rng := newTestRNG(uint64(nRaw)<<32 | uint64(loRaw)<<16 | uint64(hiRaw))
		a := Random(n, rng)
		b := Random(n, rng)
		want := a.Slice(lo, hi).Hamming(b.Slice(lo, hi))
		if got := a.HammingRange(b, lo, hi); got != want {
			t.Fatalf("HammingRange(%d,%d) on n=%d: %d != %d", lo, hi, n, got, want)
		}
	})
}

// FuzzHammingChunks checks the (candidate, chunk) table against
// HammingRange on fuzzer-chosen lengths and chunk bounds under the
// active kernel table; the data bytes are the chunk widths.
func FuzzHammingChunks(f *testing.F) {
	f.Add(uint16(10000), uint8(3), []byte{255, 255, 255, 255})
	f.Add(uint16(777), uint8(13), []byte{0, 60, 4, 64, 1, 63})
	f.Add(uint16(64), uint8(1), []byte{64})
	f.Fuzz(func(t *testing.T, nRaw uint16, k uint8, widths []byte) {
		n := int(nRaw)%12000 + 1
		rng := newTestRNG(uint64(nRaw)<<8 | uint64(k))
		q := Random(n, rng)
		cs := make([]*Vector, int(k)%8)
		for i := range cs {
			cs[i] = Random(n, rng)
		}
		bounds := []int{0}
		if len(widths) > 0 {
			bounds[0] = int(widths[0]) % (n + 1)
		}
		for _, w := range widths {
			bounds = append(bounds, min(n, bounds[len(bounds)-1]+int(w)*int(w)%700))
		}
		m := len(bounds) - 1
		table := HammingChunks(q, cs, bounds, nil)
		for i, cv := range cs {
			for j := 0; j < m; j++ {
				if want := q.HammingRange(cv, bounds[j], bounds[j+1]); table[i*m+j] != want {
					t.Fatalf("n=%d candidate %d chunk [%d,%d): %d != HammingRange %d",
						n, i, bounds[j], bounds[j+1], table[i*m+j], want)
				}
			}
		}
	})
}

// newTestRNG gives fuzz targets a local deterministic source without
// importing the stats package (avoiding an import cycle in fuzzing
// minimization corpora).
func newTestRNG(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0x9E3779B97F4A7C15))
}

// FuzzKernelEquivalence pins every registered SIMD kernel table
// bit-identical to the portable reference on fuzzer-chosen lengths,
// bit patterns, subslice offsets, weights and bind feature counts. Under `-tags purego`
// only the portable table exists and the target checks
// self-consistency. The raw data bytes overwrite the vector prefix so
// the fuzzer steers carry chains directly (all-ones words, alternating
// nibbles, ...) instead of relying on a seeded RNG to find them.
func FuzzKernelEquivalence(f *testing.F) {
	f.Add([]byte{}, uint16(64), uint8(0), int32(1))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF}, uint16(257), uint8(3), int32(-7))
	f.Add(bytes.Repeat([]byte{0xAA}, 64), uint16(4097), uint8(1), int32(1<<30))
	f.Add(bytes.Repeat([]byte{0xFF}, 520), uint16(519), uint8(7), int32(-1))
	f.Fuzz(func(t *testing.T, data []byte, nRaw uint16, offRaw uint8, w int32) {
		n := int(nRaw)%5000 + 1
		seed := uint64(nRaw)<<32 | uint64(offRaw)<<16 | uint64(len(data))
		rng := newTestRNG(seed)
		mk := func() *Vector {
			v := Random(n, rng)
			for i := 0; i < len(data) && i/8 < len(v.words); i++ {
				shift := uint(i%8) * 8
				v.words[i/8] = v.words[i/8]&^(0xFF<<shift) | uint64(data[i])<<shift
			}
			v.maskTail()
			return v
		}
		a, b, c, d, e := mk(), mk(), mk(), mk(), mk()
		off := int(offRaw) % (len(a.words) + 1)
		lo := int(offRaw) % (n + 1)
		hi := lo + int(nRaw)%(n-lo+1)

		// Portable ground truth for every kernel entry point.
		wantHam := popcntXorGo(a.words, b.words)
		wantSub := popcntXorGo(a.words[off:], b.words[off:])
		wantRange := 0
		for i := lo; i < hi; i++ {
			if a.Get(i) != b.Get(i) {
				wantRange++
			}
		}
		// Chunk bounds steered by the data bytes: three cuts around lo
		// and hi, then one per byte, clamped to stay nondecreasing.
		bounds := []int{0, lo, hi}
		for _, x := range data {
			bounds = append(bounds, min(n, bounds[len(bounds)-1]+int(x)))
		}
		wantChunks := make([]int, len(bounds)-1)
		popcntXorChunksGo(a.words, b.words, bounds, wantChunks)

		prev := KernelName()
		defer func() {
			if err := UseKernels(prev); err != nil {
				t.Fatal(err)
			}
		}()
		if err := UseKernels("portable"); err != nil {
			t.Fatal(err)
		}
		refCounter := NewCounter(n)
		refCounter.AddWeighted(a, w)
		refCounter.AddWeighted(b, -w)
		refCounter.Sub(c)
		// Bind-bundle-majority over fuzzed feature counts (padding rows,
		// even-count ties) with level picks steered by the data bytes.
		features := 1 + int(offRaw)%40
		items := make([]*Vector, features)
		lv := make([]int32, 2*features)
		for k := range items {
			items[k] = [...]*Vector{a, b, c, d, e}[k%5]
			lv[k] = int32(k % 3)
			if k < len(data) {
				lv[k] = int32(data[k] % 3)
			}
			lv[features+k] = int32((k + int(w)&7) % 3)
		}
		bind := NewBindMemory(items, []*Vector{e, New(n), a})
		refBind := []*Vector{New(n), New(n)}
		bind.MajorityInto(refBind, lv, &BindScratch{})

		for _, name := range AvailableKernels() {
			if name == "portable" {
				continue
			}
			if err := UseKernels(name); err != nil {
				t.Fatal(err)
			}
			if got := a.Hamming(b); got != wantHam {
				t.Fatalf("%s: Hamming %d != %d (n=%d)", name, got, wantHam, n)
			}
			if got := kern.popcntXor(a.words[off:], b.words[off:]); got != wantSub {
				t.Fatalf("%s: popcntXor off=%d %d != %d (n=%d)", name, off, got, wantSub, n)
			}
			if got := a.HammingRange(b, lo, hi); got != wantRange {
				t.Fatalf("%s: HammingRange(%d,%d) %d != %d (n=%d)", name, lo, hi, got, wantRange, n)
			}
			gotChunks := make([]int, len(wantChunks))
			kern.popcntXorChunks(a.words, b.words, bounds, gotChunks)
			for j := range gotChunks {
				if gotChunks[j] != wantChunks[j] {
					t.Fatalf("%s: popcntXorChunks [%d,%d) %d != %d (n=%d)",
						name, bounds[j], bounds[j+1], gotChunks[j], wantChunks[j], n)
				}
			}
			got := []*Vector{New(n), New(n)}
			bind.MajorityInto(got, lv, &BindScratch{})
			if !got[0].Equal(refBind[0]) || !got[1].Equal(refBind[1]) {
				t.Fatalf("%s: bind majority diverges (n=%d features=%d)", name, n, features)
			}
			cnt := NewCounter(n)
			cnt.AddWeighted(a, w)
			cnt.AddWeighted(b, -w)
			cnt.Sub(c)
			for i := 0; i < n; i += 1 + n/97 {
				if cnt.Tally(i) != refCounter.Tally(i) {
					t.Fatalf("%s: tally dim %d: %d != %d (n=%d)",
						name, i, cnt.Tally(i), refCounter.Tally(i), n)
				}
			}
		}
	})
}

// FuzzBindMajority pins BindMemory.MajorityInto to the per-bit count
// reference over 1–300 bits, 1–4200 features (past 2032 the kernel's
// register planes merge block by block), 1–8 levels and 1–3 samples.
// Item rows are random, all ones or all zeros as the fuzzed kind mask
// picks, so counts saturate and tie; level picks are random, except
// that the mask's top bits can bind every feature of sample 0 or 1 to
// the all-zeros level row.
func FuzzBindMajority(f *testing.F) {
	f.Add(uint64(1), uint16(0), uint16(0), uint8(0), uint8(0))
	f.Add(uint64(2), uint16(63), uint16(2031), uint8(1), uint8(0x55))
	f.Add(uint64(3), uint16(64), uint16(2032), uint8(0x12), uint8(0x4F))
	f.Add(uint64(4), uint16(299), uint16(4099), uint8(0x17), uint8(0xF0))
	f.Add(uint64(5), uint16(256), uint16(2047), uint8(0x09), uint8(0xC5))
	f.Fuzz(func(t *testing.T, seed uint64, dimsRaw, featuresRaw uint16, shape, kinds uint8) {
		dims, features := int(dimsRaw)%300+1, int(featuresRaw)%4200+1
		nLevels, samples := int(shape%8)+1, int(shape>>3)%3+1
		rng := newTestRNG(seed)
		ones := New(dims).Not()
		items := make([]*Vector, features)
		for k := range items {
			// Two bits of the kind mask per row, cycling: 0 random,
			// 1 all ones, 2 all zeros, 3 random.
			switch kinds >> (2 * uint(k%4)) & 3 {
			case 1:
				items[k] = ones
			case 2:
				items[k] = New(dims)
			default:
				items[k] = Random(dims, rng)
			}
		}
		levels := []*Vector{New(dims)}
		for len(levels) < nLevels {
			levels = append(levels, Random(dims, rng))
		}
		lv := make([]int32, samples*features)
		for i := 0; i < samples; i++ {
			if i < 2 && kinds>>uint(6+i)&1 == 1 {
				continue // every feature binds to the all-zeros row
			}
			for k := 0; k < features; k++ {
				lv[i*features+k] = int32(rng.IntN(nLevels))
			}
		}
		dsts := make([]*Vector, samples)
		for i := range dsts {
			dsts[i] = Random(dims, rng)
		}
		NewBindMemory(items, levels).MajorityInto(dsts, lv, &BindScratch{})
		for i, got := range dsts {
			if want := bindMajorityRef(items, levels, lv[i*features:(i+1)*features]); !got.Equal(want) {
				t.Fatalf("dims=%d features=%d levels=%d sample %d: bind majority diverges from the per-bit reference",
					dims, features, nLevels, i)
			}
		}
	})
}
