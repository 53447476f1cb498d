package bitvec

// hammingBlockWords is the word granularity of the fused multi-vector
// Hamming kernels: the query is walked in blocks of this many words
// (4 KiB) against every candidate before advancing, so the query block
// stays cache-resident across the whole candidate set instead of being
// re-streamed once per candidate. It is also the early-abandon
// granularity of Nearest: the bound is rechecked after each dispatched
// SIMD block, never inside one, so the vectorized kernels run
// branch-free and abandoned candidates still skip whole blocks.
const hammingBlockWords = 512

// HammingMany writes the Hamming distance from q to each candidate
// into out[i] and returns out (allocating it only when nil or too
// short). This is the fused multi-class scoring kernel behind model
// inference: one blocked pass over the query scores every deployed
// class hypervector through the dispatched popcount-XOR kernel, with
// no per-candidate allocation. Every candidate must have q's length.
func HammingMany(q *Vector, cs []*Vector, out []int) []int {
	if len(out) < len(cs) {
		out = make([]int, len(cs))
	}
	out = out[:len(cs)]
	for i, cv := range cs {
		q.mustMatch(cv)
		out[i] = 0
	}
	qw := q.words
	for lo := 0; lo < len(qw); lo += hammingBlockWords {
		hi := lo + hammingBlockWords
		if hi > len(qw) {
			hi = len(qw)
		}
		qb := qw[lo:hi]
		for i, cv := range cs {
			out[i] += kern.popcntXor(qb, cv.words[lo:hi])
		}
	}
	return out
}

// Nearest returns the index of the candidate with the smallest Hamming
// distance to q (ties resolve to the lowest index, matching an argmax
// over similarities). scratch, when at least len(cs) long, is used for
// the running distances so the call does not allocate.
//
// The kernel walks the same blocked word-major order as HammingMany
// and early-abandons: once a candidate's partial distance exceeds the
// current minimum by more than the bits still unscanned, it can no
// longer win and is skipped for the remaining blocks. The abandon
// bound is deliberately rechecked after each SIMD block rather than
// per word — the dispatched kernel scores a whole block branch-free,
// then the scalar bound check prunes before the next block — so the
// vectorized path keeps the full abandon win. The result is
// bit-identical to a full HammingMany argmin. It panics if cs is
// empty.
func Nearest(q *Vector, cs []*Vector, scratch []int) int {
	if len(cs) == 0 {
		panic("bitvec: Nearest over no candidates")
	}
	dists := scratch
	if len(dists) < len(cs) {
		dists = make([]int, len(cs))
	}
	dists = dists[:len(cs)]
	for i, cv := range cs {
		q.mustMatch(cv)
		dists[i] = 0
	}
	qw := q.words
	alive := len(cs)
	for lo := 0; lo < len(qw); lo += hammingBlockWords {
		hi := lo + hammingBlockWords
		if hi > len(qw) {
			hi = len(qw)
		}
		qb := qw[lo:hi]
		for i, cv := range cs {
			if dists[i] < 0 { // abandoned
				continue
			}
			dists[i] += kern.popcntXor(qb, cv.words[lo:hi])
		}
		if alive > 1 {
			remaining := (len(qw) - hi) * wordBits
			min := -1
			for _, d := range dists {
				if d >= 0 && (min < 0 || d < min) {
					min = d
				}
			}
			// A candidate whose partial distance already exceeds the
			// best candidate's worst possible final distance is dead:
			// final(c) >= dists[c] > min+remaining >= final(best).
			for i, d := range dists {
				if d > min+remaining {
					dists[i] = -1
					alive--
				}
			}
		}
	}
	best, bestDist := -1, 0
	for i, d := range dists {
		if d >= 0 && (best < 0 || d < bestDist) {
			best, bestDist = i, d
		}
	}
	return best
}

// HammingChunks writes the Hamming distance from q to candidate i over
// chunk j, the bit range [bounds[j], bounds[j+1]), into out[i*m+j]
// (m = len(bounds)-1), and returns out, allocating it only when nil
// or too short. Entry i*m+j equals q.HammingRange(cs[i], bounds[j],
// bounds[j+1]). It is the (class, chunk) table behind recovery's
// chunk contests, made with one dispatched popcntXorChunks call per
// candidate row. bounds must hold at least one value and be
// nondecreasing within [0, q.Len()]; every candidate must have q's
// length.
func HammingChunks(q *Vector, cs []*Vector, bounds []int, out []int) []int {
	m := len(bounds) - 1
	if m < 0 {
		panic("bitvec: HammingChunks without bounds")
	}
	for j := 0; j < m; j++ {
		q.checkRange(bounds[j], bounds[j+1])
	}
	if len(out) < len(cs)*m {
		out = make([]int, len(cs)*m)
	}
	out = out[:len(cs)*m]
	for i, cv := range cs {
		q.mustMatch(cv)
		kern.popcntXorChunks(q.words, cv.words, bounds, out[i*m:(i+1)*m])
	}
	return out
}
