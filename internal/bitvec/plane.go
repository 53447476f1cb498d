package bitvec

import "fmt"

// PlaneCounter counts, per dimension, how many added vectors had that
// bit set. Counts are stored bit-sliced: plane b holds bit b of every
// dimension's count, so adding a vector is a word-wise carry chain
// (O(words · log adds)) instead of a per-bit loop. LogHD bundles its
// codeword planes through it, and record encoding merges the counts of
// feature blocks too long for the encode kernel's registers into it.
//
// Bulk adds (AddMany) go through a two-level carry-save front
// end instead of the planes. Level one folds eight weight-1 rows into
// running ones/twos/fours accumulators and emits one weight-8 row; eight
// pending weight-8 rows fold through level two into weight-8/16/32
// accumulators, so only weight-64 carries ripple into the planes. The
// front end is settled into the planes before any read (Count,
// Threshold, Majority).
//
// A PlaneCounter is built for reuse: every scratch row lives on the
// counter (no per-call allocation), and Reset keeps every buffer for
// the next accumulation, so a warmed counter adds without allocating.
type PlaneCounter struct {
	planes [][]uint64
	// carry is Add's ripple-carry scratch and level two's weight-64
	// output, reused across calls.
	carry []uint64
	// acc holds the front end's accumulators, weights 1, 2, 4 (level
	// one) and 8, 16, 32 (level two); acc[w] settles into plane w.
	acc [6][]uint64
	// pend holds level one's pending weight-8 rows; pend[npend] is
	// free between calls, since level two folds them at eight.
	pend  [8][]uint64
	npend int
	// group gathers the rows of one carry-save step; it lives on the
	// counter because the kernel call would move a local to the heap.
	group [8][]uint64
	// zero pads ragged groups; no kernel writes through it.
	zero []uint64
	// unsettled is set while the front end may hold counts the planes
	// do not.
	unsettled bool
	words     int
	n         int
	adds      int
}

// NewPlaneCounter returns a zeroed counter over n dimensions.
func NewPlaneCounter(n int) *PlaneCounter {
	if n < 0 {
		panic("bitvec: negative length")
	}
	return &PlaneCounter{words: wordsFor(n), n: n}
}

// Len returns the number of dimensions.
func (p *PlaneCounter) Len() int { return p.n }

// Adds returns how many vectors have been accumulated.
func (p *PlaneCounter) Adds() int { return p.adds }

// ensureRows allocates the carry scratch and the front-end rows in one
// backing array.
func (p *PlaneCounter) ensureRows() {
	if p.carry != nil {
		return
	}
	slab := make([]uint64, (2+len(p.acc)+len(p.pend))*p.words)
	next := func() []uint64 {
		row := slab[:p.words:p.words]
		slab = slab[p.words:]
		return row
	}
	p.carry, p.zero = next(), next()
	for i := range p.acc {
		p.acc[i] = next()
	}
	for i := range p.pend {
		p.pend[i] = next()
	}
}

// Add accumulates v: every dimension where v has a 1 bit is
// incremented. v must match the counter's length.
func (p *PlaneCounter) Add(v *Vector) {
	if v.n != p.n {
		panic(fmt.Sprintf("bitvec: plane counter length %d != vector length %d", p.n, v.n))
	}
	p.adds++
	if p.words == 0 {
		return
	}
	// Ripple-carry across planes: carry starts as the incoming bits.
	p.ensureRows()
	copy(p.carry, v.words)
	p.rippleFrom(0, p.carry)
}

// rippleFrom propagates carry (one word per counter word) into the
// planes starting at plane index start, growing the plane stack if the
// carry escapes the top. carry is consumed: on return it is all zero.
// Each per-plane half-adder pass runs through the dispatched rippleStep
// kernel.
func (p *PlaneCounter) rippleFrom(start int, carry []uint64) {
	for pi := start; pi < len(p.planes); pi++ {
		if kern.rippleStep(p.planes[pi], carry) == 0 {
			return
		}
	}
	if start >= len(p.planes) && isZero(carry) {
		return
	}
	// Carry out of the top plane: grow. Missing intermediate planes
	// (start beyond the current stack) are zero-filled first. The carry
	// is scratch reused by the caller, so the new plane is an
	// independent copy.
	for len(p.planes) < start {
		p.planes = append(p.planes, make([]uint64, p.words))
	}
	top := make([]uint64, p.words)
	copy(top, carry)
	p.planes = append(p.planes, top)
	clear(carry)
}

func isZero(ws []uint64) bool {
	for _, w := range ws {
		if w != 0 {
			return false
		}
	}
	return true
}

// AddMany accumulates every vector in vs, equivalent to calling Add on
// each in turn but substantially faster for large bundles: vectors go
// through the two-level carry-save front end eight at a time, the
// ragged tail padded with the zero row, so the bit-sliced planes are only
// touched by the rare weight-64 carries and one final settle. LogHD
// plane construction bundles through it.
func (p *PlaneCounter) AddMany(vs []*Vector) {
	for _, v := range vs {
		if v.n != p.n {
			panic(fmt.Sprintf("bitvec: plane counter length %d != vector length %d", p.n, v.n))
		}
	}
	for len(vs) > 0 {
		n := min(len(vs), len(p.group))
		for k, v := range vs[:n] {
			p.group[k] = v.words
		}
		p.addGroup(n)
		vs = vs[n:]
	}
}

// addGroup folds group[:n] through level one, padding the rest with
// the zero row, and folds the pending weight-8 rows through level two
// once eight are waiting.
func (p *PlaneCounter) addGroup(n int) {
	p.adds += n
	if n == 0 || p.words == 0 {
		return
	}
	p.ensureRows()
	g := &p.group
	for k := n; k < len(g); k++ {
		g[k] = p.zero
	}
	p.unsettled = true
	if kern.csaAdd8(p.acc[0], p.acc[1], p.acc[2], p.pend[p.npend], g) != 0 {
		if p.npend++; p.npend == len(p.pend) {
			p.foldPending()
		}
	}
}

// foldPending folds the pending weight-8 rows through level two (the
// ragged rest padded with the zero row) and ripples the weight-64 carry
// into the planes from plane 6.
func (p *PlaneCounter) foldPending() {
	g := &p.group
	copy(g[:], p.pend[:p.npend])
	for k := p.npend; k < len(g); k++ {
		g[k] = p.zero
	}
	p.npend = 0
	if kern.csaAdd8(p.acc[3], p.acc[4], p.acc[5], p.carry, g) != 0 {
		p.rippleFrom(6, p.carry)
	}
}

// settle moves everything the front end holds into the planes: the
// pending weight-8 rows through level two, then each accumulator at its
// weight. The accumulators are left zero.
func (p *PlaneCounter) settle() {
	if !p.unsettled {
		return
	}
	if p.npend > 0 {
		p.foldPending()
	}
	for w, acc := range p.acc {
		p.rippleFrom(w, acc)
	}
	p.unsettled = false
}

// Count returns the accumulated count for dimension i.
func (p *PlaneCounter) Count(i int) int {
	if i < 0 || i >= p.n {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, p.n))
	}
	p.settle()
	w, b := i/wordBits, uint(i)%wordBits
	count := 0
	for plane := range p.planes {
		count |= int(p.planes[plane][w]>>b&1) << plane
	}
	return count
}

// Threshold returns the binary vector with bit i set when
// Count(i) > thresh. For a majority bundle of m added vectors use
// thresh = m/2 (ties at even m resolve to 0; callers wanting the
// Counter parity tie-break should use Majority).
func (p *PlaneCounter) Threshold(thresh int) *Vector {
	out := New(p.n)
	p.ThresholdInto(out, thresh)
	return out
}

// ThresholdInto writes the Threshold result into dst without
// allocating. dst must have the counter's length.
func (p *PlaneCounter) ThresholdInto(dst *Vector, thresh int) {
	p.compareInto(dst, thresh, false)
}

// compareInto writes the count > thresh mask into dst; when withTies is
// set it additionally sets even dimensions whose count equals thresh
// exactly (the deterministic parity tie-break shared with Counter).
func (p *PlaneCounter) compareInto(dst *Vector, thresh int, withTies bool) {
	if dst.n != p.n {
		panic(fmt.Sprintf("bitvec: plane counter length %d != vector length %d", p.n, dst.n))
	}
	if p.words == 0 {
		return
	}
	p.settle()
	nPlanes := len(p.planes)
	if thresh < 0 || thresh>>uint(nPlanes) != 0 {
		// thresh outside the representable count range: no count can
		// exceed it (or all do, for negative thresh), and no tie can
		// occur above the range.
		var fill uint64
		if thresh < 0 {
			fill = ^uint64(0)
		}
		for w := 0; w < p.words; w++ {
			dst.words[w] = fill
		}
		dst.maskTail()
		return
	}
	// Plane-major over the whole word range: each plane pass is one
	// long vectorizable sweep through the dispatched planeCompare
	// kernel, with the threshold bit broadcast per plane instead of
	// re-tested per word. Bit-identical to the word-major formulation —
	// each word's gt/eq lane is independent, only the high-to-low plane
	// order matters. The running masks live in the settled front end's
	// free pending rows.
	p.ensureRows()
	gt, eq := p.pend[0], p.pend[1]
	for i := range gt {
		gt[i] = 0
		eq[i] = ^uint64(0)
	}
	for b := nPlanes - 1; b >= 0; b-- {
		var tb uint64
		if thresh>>uint(b)&1 == 1 {
			tb = ^uint64(0)
		}
		kern.planeCompare(gt, eq, p.planes[b], tb)
	}
	if withTies {
		for w := 0; w < p.words; w++ {
			dst.words[w] = gt[w] | eq[w]&evenMask
		}
	} else {
		copy(dst.words, gt)
	}
	dst.maskTail()
}

// Majority returns the bundle with bit i set when strictly more than
// half of the added vectors had bit i set; exact ties at even counts
// break by dimension parity, matching Counter.Threshold.
func (p *PlaneCounter) Majority() *Vector {
	out := New(p.n)
	p.MajorityInto(out)
	return out
}

// MajorityInto writes the Majority bundle into dst without allocating.
// The even-adds parity tie-break is folded into the same word-wise
// comparison pass as the threshold itself.
func (p *PlaneCounter) MajorityInto(dst *Vector) {
	p.compareInto(dst, p.adds/2, p.adds%2 == 0)
}

// Reset zeroes the counter for reuse without reallocating anything.
func (p *PlaneCounter) Reset() {
	for _, plane := range p.planes {
		clear(plane)
	}
	if p.unsettled {
		for _, acc := range p.acc {
			clear(acc)
		}
		p.npend, p.unsettled = 0, false
	}
	p.adds = 0
}
