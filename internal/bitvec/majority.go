package bitvec

// maxMajorityVectors bounds the bit-sliced vote counter in
// MajorityInto: 6 count planes hold votes for up to 63 vectors, far
// beyond any plausible replica fleet.
const maxMajorityVectors = 63

// MajorityInto writes the bitwise majority of vs into dst: bit i of
// dst is the value held by more than half of the vs at position i.
// When the vote is tied (len(vs) even), the bit of vs[0] — the
// incumbent, lowest-id holder — wins, so the result is deterministic
// and a two-vector "majority" degenerates to vs[0] rather than to an
// arbitrary mix. dst may alias an element of vs.
//
// This is the anti-entropy kernel of the replica fleet: the majority
// across replicas' class hypervectors defines the reference model that
// minority (corrupted) chunks are repaired toward. It runs word-major
// like the Hamming kernels — a boolean majority formula for the common
// 3- and 5-replica fleets, and a bit-sliced carry-save vote counter
// with a sliced threshold compare for larger ones — so the cost is a
// few word ops per 64 bits, never a per-bit loop.
func MajorityInto(dst *Vector, vs []*Vector) {
	if len(vs) == 0 {
		panic("bitvec: majority over no vectors")
	}
	if len(vs) > maxMajorityVectors {
		panic("bitvec: majority over too many vectors")
	}
	for _, v := range vs {
		dst.mustMatch(v)
	}
	switch len(vs) {
	case 1, 2:
		// One voter, or two with ties to vs[0]: vs[0] always wins.
		dst.CopyFrom(vs[0])
		return
	case 3:
		majority3Go(dst.words, vs[0].words, vs[1].words, vs[2].words)
		return
	case 5:
		majority5Go(dst.words, vs[0].words, vs[1].words, vs[2].words, vs[3].words, vs[4].words)
		return
	}
	majorityGeneral(dst, vs)
}

// majority3Go and majority5Go write the bitwise majority of the three
// (five) source slices into dst, one word at a time. dst may alias a
// source: each word is read from every source before it is stored.
func majority3Go(dst, a, b, c []uint64) {
	for i := range dst {
		dst[i] = a[i]&b[i] | a[i]&c[i] | b[i]&c[i]
	}
}

func majority5Go(dst, a, b, c, d, e []uint64) {
	for i := range dst {
		// maj5 = "at least 3 of 5", split on how many of a,b,c vote
		// yes: all three carry alone; exactly two need one of d,e;
		// exactly one needs both.
		maj3 := a[i]&b[i] | a[i]&c[i] | b[i]&c[i] // at least two of a,b,c
		all3 := a[i] & b[i] & c[i]
		one3 := (a[i] | b[i] | c[i]) &^ maj3 // exactly one of a,b,c
		dst[i] = all3 | maj3&(d[i]|e[i]) | one3&d[i]&e[i]
	}
}

// majorityGeneral is the arbitrary-fan-in path: per 64-bit word it
// accumulates each lane's vote count into bit-sliced planes (plane j
// holds bit j of every lane's count) via carry-save addition, then
// compares all 64 counters against the majority threshold at once with
// a bit-sliced magnitude compare.
func majorityGeneral(dst *Vector, vs []*Vector) {
	n := len(vs)
	threshold := uint64(n/2 + 1) // strict majority
	half := uint64(n / 2)        // tie count (n even)
	planes := 6                  // counts up to 63
	for w := range dst.words {
		var p [6]uint64
		for _, v := range vs {
			carry := v.words[w]
			for j := 0; carry != 0 && j < planes; j++ {
				p[j], carry = p[j]^carry, p[j]&carry
			}
		}
		// Bit-sliced compare: gt/eq track count vs threshold per lane,
		// scanning planes from the most significant down.
		var gt uint64
		eq := ^uint64(0)
		eqHalf := ^uint64(0)
		for j := planes - 1; j >= 0; j-- {
			tj := -(threshold >> j & 1) // all-ones when threshold bit j set
			hj := -(half >> j & 1)
			gt |= eq & p[j] & ^tj
			eq &= ^(p[j] ^ tj)
			eqHalf &= ^(p[j] ^ hj)
		}
		maj := gt | eq // count >= threshold
		if n%2 == 0 {
			maj |= eqHalf & vs[0].words[w] // exact tie: incumbent's bit
		}
		dst.words[w] = maj
	}
}

// Majority is MajorityInto into a fresh vector.
func Majority(vs []*Vector) *Vector {
	if len(vs) == 0 {
		panic("bitvec: majority over no vectors")
	}
	dst := New(vs[0].n)
	MajorityInto(dst, vs)
	return dst
}
