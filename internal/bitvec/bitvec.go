// Package bitvec implements dense bit-packed binary vectors.
//
// A Vector stores D bits in ceil(D/64) machine words. All
// hyperdimensional structures in this repository (base hypervectors,
// encoded queries, class hypervectors) are Vectors, so the hot paths —
// XOR binding, Hamming distance, chunked Hamming distance, and
// probabilistic bit substitution — are implemented here as word-wise
// loops using math/bits popcounts.
//
// Vectors have value-like semantics through Clone/CopyFrom; the
// in-place operations (XorInPlace, Flip, ...) exist for the hot loops
// that must not allocate.
package bitvec

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
)

const wordBits = 64

// Vector is a fixed-length sequence of bits packed into uint64 words.
// The zero value is an empty (length 0) vector; use New or Random to
// construct usable vectors.
type Vector struct {
	words []uint64
	n     int
}

// New returns an all-zero vector of n bits. It panics if n is negative.
func New(n int) *Vector {
	if n < 0 {
		panic("bitvec: negative length")
	}
	return &Vector{words: make([]uint64, wordsFor(n)), n: n}
}

// NewMany returns one zeroed vector per entry of lens, lens[i] bits
// long, all carved from one backing word array and one header array:
// three allocations in all instead of two per vector. The vectors are
// independent — writing one never touches another's bits — but they
// stay reachable as a set, so it suits batches with one lifetime (a
// sweep's chunk copies and votes). It panics on a negative length.
func NewMany(lens []int) []*Vector {
	total := 0
	for _, n := range lens {
		if n < 0 {
			panic("bitvec: negative length")
		}
		total += wordsFor(n)
	}
	words := make([]uint64, total)
	hdrs := make([]Vector, len(lens))
	out := make([]*Vector, len(lens))
	for i, n := range lens {
		w := wordsFor(n)
		hdrs[i] = Vector{words: words[:w:w], n: n}
		words = words[w:]
		out[i] = &hdrs[i]
	}
	return out
}

// Random returns a vector of n uniformly random bits drawn from rng.
func Random(n int, rng *rand.Rand) *Vector {
	v := New(n)
	for i := range v.words {
		v.words[i] = rng.Uint64()
	}
	v.maskTail()
	return v
}

// FromBools builds a vector from a slice of booleans, one bit per
// element in order.
func FromBools(bits []bool) *Vector {
	v := New(len(bits))
	for i, b := range bits {
		if b {
			v.Set(i, true)
		}
	}
	return v
}

func wordsFor(n int) int { return (n + wordBits - 1) / wordBits }

// maskTail clears the unused high bits of the final word so that
// popcounts and equality never see garbage.
func (v *Vector) maskTail() {
	if rem := v.n % wordBits; rem != 0 && len(v.words) > 0 {
		v.words[len(v.words)-1] &= (1 << uint(rem)) - 1
	}
}

// Len returns the number of bits in the vector.
func (v *Vector) Len() int { return v.n }

// Words exposes the underlying packed words. The returned slice aliases
// the vector's storage; callers that mutate it must respect the tail
// mask (bits at positions >= Len() must stay zero).
func (v *Vector) Words() []uint64 { return v.words }

// Get reports whether bit i is set. It panics if i is out of range.
func (v *Vector) Get(i int) bool {
	v.check(i)
	return v.words[i/wordBits]>>(uint(i)%wordBits)&1 == 1
}

// Set sets bit i to b. It panics if i is out of range.
func (v *Vector) Set(i int, b bool) {
	v.check(i)
	mask := uint64(1) << (uint(i) % wordBits)
	if b {
		v.words[i/wordBits] |= mask
	} else {
		v.words[i/wordBits] &^= mask
	}
}

// Flip inverts bit i. It panics if i is out of range.
func (v *Vector) Flip(i int) {
	v.check(i)
	v.words[i/wordBits] ^= 1 << (uint(i) % wordBits)
}

func (v *Vector) check(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, v.n))
	}
}

// Clone returns an independent copy of v.
func (v *Vector) Clone() *Vector {
	c := &Vector{words: make([]uint64, len(v.words)), n: v.n}
	copy(c.words, v.words)
	return c
}

// CopyFrom overwrites v's bits with src's. Both vectors must have the
// same length.
func (v *Vector) CopyFrom(src *Vector) {
	v.mustMatch(src)
	copy(v.words, src.words)
}

// Equal reports whether v and o hold identical bits.
func (v *Vector) Equal(o *Vector) bool {
	if v.n != o.n {
		return false
	}
	for i, w := range v.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// OnesCount returns the number of set bits.
func (v *Vector) OnesCount() int {
	total := 0
	for _, w := range v.words {
		total += bits.OnesCount64(w)
	}
	return total
}

// Xor returns a new vector holding v XOR o. The inputs must have equal
// lengths. XOR is the HDC binding operator.
func (v *Vector) Xor(o *Vector) *Vector {
	v.mustMatch(o)
	out := New(v.n)
	for i := range v.words {
		out.words[i] = v.words[i] ^ o.words[i]
	}
	return out
}

// XorInPlace sets v = v XOR o without allocating.
func (v *Vector) XorInPlace(o *Vector) {
	v.mustMatch(o)
	for i := range v.words {
		v.words[i] ^= o.words[i]
	}
}

// XorInto sets dst = v XOR o without allocating. All three vectors must
// have the same length; dst may alias v or o.
func (v *Vector) XorInto(dst, o *Vector) {
	v.mustMatch(o)
	v.mustMatch(dst)
	for i := range v.words {
		dst.words[i] = v.words[i] ^ o.words[i]
	}
}

// And returns a new vector holding v AND o.
func (v *Vector) And(o *Vector) *Vector {
	v.mustMatch(o)
	out := New(v.n)
	for i := range v.words {
		out.words[i] = v.words[i] & o.words[i]
	}
	return out
}

// Or returns a new vector holding v OR o.
func (v *Vector) Or(o *Vector) *Vector {
	v.mustMatch(o)
	out := New(v.n)
	for i := range v.words {
		out.words[i] = v.words[i] | o.words[i]
	}
	return out
}

// Not returns a new vector with every bit of v inverted.
func (v *Vector) Not() *Vector {
	out := New(v.n)
	for i := range v.words {
		out.words[i] = ^v.words[i]
	}
	out.maskTail()
	return out
}

// Hamming returns the Hamming distance between v and o (the number of
// positions where they differ). The vectors must have equal lengths.
// It dispatches to the active popcount-XOR kernel (AVX2/AVX-512 on
// amd64, NEON on arm64, portable otherwise).
func (v *Vector) Hamming(o *Vector) int {
	v.mustMatch(o)
	return kern.popcntXor(v.words, o.words)
}

// Similarity returns the normalized Hamming similarity
// 1 - Hamming(v,o)/Len, a value in [0, 1] where 1 means identical and
// ~0.5 means unrelated random vectors.
func (v *Vector) Similarity(o *Vector) float64 {
	if v.n == 0 {
		return 1
	}
	return 1 - float64(v.Hamming(o))/float64(v.n)
}

// HammingRange returns the Hamming distance restricted to the bit range
// [lo, hi). It panics if the range is invalid. This is the primitive
// behind per-chunk fault detection and the fleet/cluster anti-entropy
// divergence sweeps: the partial edge words are masked scalar, and the
// full interior words run through the dispatched popcount-XOR kernel.
func (v *Vector) HammingRange(o *Vector, lo, hi int) int {
	v.mustMatch(o)
	v.checkRange(lo, hi)
	return hammingRange(kern.popcntXor, v.words, o.words, lo, hi)
}

// hammingRange is HammingRange over raw words through the given
// popcntXor kernel.
func hammingRange(popcntXor func(a, b []uint64) int, a, b []uint64, lo, hi int) int {
	if lo == hi {
		return 0
	}
	firstWord, lastWord := lo/wordBits, (hi-1)/wordBits
	if firstWord == lastWord {
		return bits.OnesCount64((a[firstWord] ^ b[firstWord]) & rangeMask(firstWord, lo, hi))
	}
	total := 0
	fullLo, fullHi := firstWord, lastWord+1
	if lo%wordBits != 0 {
		total += bits.OnesCount64((a[firstWord] ^ b[firstWord]) & rangeMask(firstWord, lo, hi))
		fullLo++
	}
	if hi%wordBits != 0 {
		total += bits.OnesCount64((a[lastWord] ^ b[lastWord]) & rangeMask(lastWord, lo, hi))
		fullHi--
	}
	if fullLo < fullHi {
		total += popcntXor(a[fullLo:fullHi], b[fullLo:fullHi])
	}
	return total
}

// SimilarityRange returns the normalized similarity over [lo, hi).
func (v *Vector) SimilarityRange(o *Vector, lo, hi int) float64 {
	if hi == lo {
		return 1
	}
	return 1 - float64(v.HammingRange(o, lo, hi))/float64(hi-lo)
}

// rangeMask returns the mask of bits of word w that fall inside the
// global bit range [lo, hi).
func rangeMask(w, lo, hi int) uint64 {
	mask := ^uint64(0)
	wordLo := w * wordBits
	if lo > wordLo {
		mask &= ^uint64(0) << uint(lo-wordLo)
	}
	wordHi := wordLo + wordBits
	if hi < wordHi {
		mask &= (1 << uint(hi-wordLo)) - 1
	}
	return mask
}

func (v *Vector) checkRange(lo, hi int) {
	if lo < 0 || hi > v.n || lo > hi {
		panic(fmt.Sprintf("bitvec: range [%d,%d) out of bounds [0,%d)", lo, hi, v.n))
	}
}

// FlipRandom flips exactly k distinct randomly chosen bits of v. It
// panics if k exceeds Len. This models a bit-flip attack of known size.
func (v *Vector) FlipRandom(k int, rng *rand.Rand) {
	if k < 0 || k > v.n {
		panic("bitvec: FlipRandom count out of range")
	}
	// Floyd's algorithm for a k-subset of [0, n).
	chosen := make(map[int]struct{}, k)
	for j := v.n - k; j < v.n; j++ {
		t := rng.IntN(j + 1)
		if _, dup := chosen[t]; dup {
			t = j
		}
		chosen[t] = struct{}{}
		v.Flip(t)
	}
}

// FlipBernoulli flips each bit independently with probability p and
// returns the number of flips performed. It panics unless 0 <= p <= 1
// (a NaN p included).
//
// Positions are drawn by geometric skip-sampling — the gap to the next
// flipped bit is Geometric(p) — so the cost is O(expected flips), not
// O(Len). The marginal distribution of the flip pattern is identical to
// the per-bit Bernoulli trial, but the RNG consumption differs, so
// seeded streams produce different (equally valid) patterns than the
// old per-dimension implementation.
func (v *Vector) FlipBernoulli(p float64, rng *rand.Rand) int {
	if !(p >= 0 && p <= 1) {
		panic("bitvec: probability out of range")
	}
	if p == 0 || v.n == 0 {
		return 0
	}
	if p == 1 {
		for i := range v.words {
			v.words[i] = ^v.words[i]
		}
		v.maskTail()
		return v.n
	}
	// Skip ~ floor(log(U)/log(1-p)) with U uniform on (0, 1] is
	// Geometric(p) on {0, 1, 2, ...}: the number of untouched bits
	// before the next flip.
	denom := math.Log1p(-p)
	flips, i := 0, 0
	for {
		skip := math.Floor(math.Log(1-rng.Float64()) / denom)
		if skip >= float64(v.n-i) { // also catches +Inf
			break
		}
		i += int(skip)
		v.Flip(i)
		flips++
		i++
	}
	return flips
}

// SubstituteRange copies each bit of src in [lo, hi) into v
// independently with probability p, returning the number of positions
// copied (including ones that already matched). This is the paper's
// probabilistic substitution p·Q | (1−p)·C used to pull a faulty class
// chunk toward a trusted query. It panics unless 0 <= p <= 1 (a NaN p
// included).
//
// It works a word at a time: each word of the range draws one
// Bernoulli mask and merges v = v&^mask | src&mask. The mask comes from
// the binary expansion of p, cut after substitutionDigits digits and
// with its trailing zero digits dropped: starting from one uniform
// word for the last 1 digit, each digit further up ORs in a fresh
// uniform word when it is 1 (P ← 1/2 + P/2) and ANDs one in when it is
// 0 (P ← P/2). So every bit is copied independently with probability
// floor(p·2^32)/2^32, within 2^-32 of p, and a word costs as many
// Uint64 draws as that expansion has digits: two at p = 0.25, one at
// p = 0.5. p = 1 is OverwriteRange.
func (v *Vector) SubstituteRange(src *Vector, lo, hi int, p float64, rng *rand.Rand) int {
	v.mustMatch(src)
	v.checkRange(lo, hi)
	if !(p >= 0 && p <= 1) {
		panic("bitvec: probability out of range")
	}
	if lo == hi {
		return 0
	}
	if p == 1 {
		v.OverwriteRange(src, lo, hi)
		return hi - lo
	}
	x := uint64(p * (1 << substitutionDigits))
	if x == 0 {
		return 0
	}
	last := bits.TrailingZeros64(x)
	copied := 0
	for w := lo / wordBits; w <= (hi-1)/wordBits; w++ {
		mask := rng.Uint64()
		for d := last + 1; d < substitutionDigits; d++ {
			if x>>uint(d)&1 != 0 {
				mask |= rng.Uint64()
			} else {
				mask &= rng.Uint64()
			}
		}
		mask &= rangeMask(w, lo, hi)
		v.words[w] = v.words[w]&^mask | src.words[w]&mask
		copied += bits.OnesCount64(mask)
	}
	return copied
}

// substitutionDigits is how many binary digits of p SubstituteRange's
// mask resolves.
const substitutionDigits = 32

// OverwriteRange copies all bits of src in [lo, hi) into v, word-wise:
// SubstituteRange with p = 1.
func (v *Vector) OverwriteRange(src *Vector, lo, hi int) {
	v.mustMatch(src)
	v.checkRange(lo, hi)
	if lo == hi {
		return
	}
	firstWord, lastWord := lo/wordBits, (hi-1)/wordBits
	for w := firstWord; w <= lastWord; w++ {
		mask := rangeMask(w, lo, hi)
		v.words[w] = v.words[w]&^mask | src.words[w]&mask
	}
}

// OverwriteSlice copies src — a vector of length L, as produced by
// Slice(lo, lo+L) — into bits [lo, lo+L) of v; the inverse of Slice.
// It runs word-wise: src's packed words are funneled up by lo%64 and
// merged under a range mask, never a per-bit loop. This is how a
// cluster node applies a majority chunk pushed over the wire, where
// only the chunk's bits travel rather than a full-length vector.
func (v *Vector) OverwriteSlice(src *Vector, lo int) {
	hi := lo + src.n
	v.checkRange(lo, hi)
	if src.n == 0 {
		return
	}
	s := uint(lo % wordBits)
	firstWord, lastWord := lo/wordBits, (hi-1)/wordBits
	for w := firstWord; w <= lastWord; w++ {
		j := w - firstWord
		var x uint64
		switch {
		case s == 0:
			x = src.words[j]
		case j == 0:
			x = src.words[0] << s
		default:
			x = src.words[j-1] >> (wordBits - s)
			if j < len(src.words) {
				x |= src.words[j] << s
			}
		}
		mask := rangeMask(w, lo, hi)
		v.words[w] = v.words[w]&^mask | x&mask
	}
}

// RotateLeft returns a new vector equal to v cyclically rotated left by
// k bit positions (bit i of the result is bit (i+k) mod Len of v).
// Rotation implements the HDC permutation operator. It runs word-wise:
// the result is the n-bit funnel (v >> k) | (v << (n-k)), two shifted
// passes over the packed words instead of a per-bit loop.
func (v *Vector) RotateLeft(k int) *Vector {
	out := New(v.n)
	if v.n == 0 {
		return out
	}
	k = ((k % v.n) + v.n) % v.n
	if k == 0 {
		copy(out.words, v.words)
		return out
	}
	// Low part: out bits [0, n-k) = v bits [k, n). The tail-mask
	// invariant guarantees v's bits at positions >= n read as zero.
	shiftRightWords(out.words, v.words, k)
	// High part: out bits [n-k, n) = v bits [0, k), OR-ed in as the
	// left shift by n-k; maskTail clears the spill past n.
	m := v.n - k
	ws, s := m/wordBits, uint(m%wordBits)
	for j := len(out.words) - 1; j >= ws; j-- {
		w := v.words[j-ws] << s
		if j-ws-1 >= 0 {
			w |= v.words[j-ws-1] >> (wordBits - s) // s == 0 shifts out to 0
		}
		out.words[j] |= w
	}
	out.maskTail()
	return out
}

// shiftRightWords writes src logically shifted down by k bits into dst
// (dst bit i = src bit i+k; vacated high bits are zero). dst may be
// shorter than src — extra source words feed the final dst words.
func shiftRightWords(dst, src []uint64, k int) {
	ws, s := k/wordBits, uint(k%wordBits)
	for j := range dst {
		var w uint64
		if j+ws < len(src) {
			w = src[j+ws] >> s
			if j+ws+1 < len(src) {
				w |= src[j+ws+1] << (wordBits - s) // s == 0 shifts out to 0
			}
		}
		dst[j] = w
	}
}

// Slice returns a new vector holding bits [lo, hi) of v. It runs
// word-wise as a logical shift of the packed words by lo.
func (v *Vector) Slice(lo, hi int) *Vector {
	v.checkRange(lo, hi)
	out := New(hi - lo)
	v.SliceInto(out, lo)
	return out
}

// SliceInto writes bits [lo, lo+dst.Len()) of v into dst without
// allocating.
func (v *Vector) SliceInto(dst *Vector, lo int) {
	v.checkRange(lo, lo+dst.n)
	if dst.n == 0 {
		return
	}
	shiftRightWords(dst.words, v.words, lo)
	dst.maskTail()
}

func (v *Vector) mustMatch(o *Vector) {
	if v.n != o.n {
		panic(fmt.Sprintf("bitvec: length mismatch %d != %d", v.n, o.n))
	}
}

// String renders the vector as a 0/1 string, bit 0 first, truncated
// with an ellipsis beyond 64 bits.
func (v *Vector) String() string {
	limit := v.n
	trunc := false
	if limit > 64 {
		limit, trunc = 64, true
	}
	buf := make([]byte, 0, limit+16)
	for i := 0; i < limit; i++ {
		if v.Get(i) {
			buf = append(buf, '1')
		} else {
			buf = append(buf, '0')
		}
	}
	if trunc {
		buf = append(buf, fmt.Sprintf("...(%d bits)", v.n)...)
	}
	return string(buf)
}
