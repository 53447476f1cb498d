package bitvec

import (
	"fmt"
	"math/bits"
)

// Layout of a BindMemory and limits of one bindMajority kernel call.
const (
	// bindStripe is the stripe width in words: one 512-bit register.
	bindStripe = 8
	// bindBlock is the kernel's carry-save block: feature rows are
	// padded to a multiple of it with zero rows.
	bindBlock = 16
	// bindPlanes is how many count planes a kernel call keeps in
	// registers, so one call counts at most 2^bindPlanes-1 per bit.
	bindPlanes = 11
	// bindMaxFeatures is the most (padded) features one kernel call
	// sweeps; longer records sweep in blocks whose planes merge in
	// mergePlanes.
	bindMaxFeatures = (1<<bindPlanes - 1) &^ (bindBlock - 1)
)

// evenMask selects even bit indices; word offsets are multiples of 64,
// so global parity equals in-word parity.
const evenMask = 0x5555555555555555

// BindMemory holds an item memory B_k and a level memory L(l) laid out
// for the fused bind-bundle-majority kernel: record encoding computes
// Majority_k(B_k ⊕ L(l_k)) by binding on the fly instead of storing
// every product. Both memories are stripe-major: stripe s of every row
// is contiguous, so the item slice one stripe sweep reads
// (features · 64 bytes, 39 KB at 617 features) stays L1-resident
// across a whole batch. Item rows are padded to a whole carry-save
// block with zero rows, and the level memory ends in a zero row that
// the padding binds to, so padding adds nothing to any count.
//
// A BindMemory is immutable after construction and safe for
// concurrent use.
type BindMemory struct {
	items     []uint64 // row k of stripe s at (s·stride + k)·bindStripe
	levels    []uint64 // row l of stripe s at (s·levelRows + l)·bindStripe
	n         int
	stripes   int
	features  int // item rows in use
	stride    int // item rows per stripe: features padded to bindBlock
	levelRows int // level rows per stripe: the levels plus the zero row
}

// BindRowBytes returns the bytes one row of n bits occupies in a
// BindMemory: whole stripes, so at least 64.
func BindRowBytes(n int) int64 {
	return int64(stripesFor(n)) * bindStripe * 8
}

// BindRows returns how many item rows a BindMemory over features items
// stores: features rounded up to the kernel's block.
func BindRows(features int) int {
	return (features + bindBlock - 1) &^ (bindBlock - 1)
}

func stripesFor(n int) int { return (wordsFor(n) + bindStripe - 1) / bindStripe }

// NewBindMemory lays out items and levels for MajorityInto. Every
// vector must have the same length; it panics on an empty or ragged
// memory.
func NewBindMemory(items, levels []*Vector) *BindMemory {
	if len(items) == 0 || len(levels) == 0 {
		panic("bitvec: bind memory needs items and levels")
	}
	n := items[0].n
	m := &BindMemory{
		n:         n,
		stripes:   stripesFor(n),
		features:  len(items),
		stride:    BindRows(len(items)),
		levelRows: len(levels) + 1,
	}
	m.items = m.stripe(items, m.stride)
	m.levels = m.stripe(levels, m.levelRows)
	return m
}

// stripe copies rows into a stripe-major slab of stride rows per
// stripe; rows past len(rows) stay zero.
func (m *BindMemory) stripe(rows []*Vector, stride int) []uint64 {
	slab := make([]uint64, m.stripes*stride*bindStripe)
	for k, v := range rows {
		if v.n != m.n {
			panic(fmt.Sprintf("bitvec: bind memory row of %d bits != %d", v.n, m.n))
		}
		for s := 0; s < m.stripes; s++ {
			lo := s * bindStripe
			copy(slab[(s*stride+k)*bindStripe:], v.words[lo:min(lo+bindStripe, len(v.words))])
		}
	}
	return slab
}

// BindScratch is the reusable working state of MajorityInto. It is not
// safe for concurrent use; once it has served a batch of some size,
// batches up to that size allocate nothing.
type BindScratch struct {
	// pass lives here because the kernel call through the table would
	// move a local to the heap.
	pass   bindPass
	offs   []int32
	out    []uint64
	planes []uint64
	sums   []uint64
}

// MajorityInto sets every dsts[i] to the majority bundle
// Majority_k(items[k] ⊕ levels[lv[i·F+k]]), F the number of items,
// with the parity tie rule: an exact tie at an even feature count sets
// the even dimensions. It panics on a shape mismatch or a level
// index out of range.
func (m *BindMemory) MajorityInto(dsts []*Vector, lv []int32, s *BindScratch) {
	samples := len(dsts)
	if len(lv) != samples*m.features {
		panic(fmt.Sprintf("bitvec: %d level indices for %d samples of %d features", len(lv), samples, m.features))
	}
	for _, d := range dsts {
		if d.n != m.n {
			panic(fmt.Sprintf("bitvec: bind memory length %d != vector length %d", m.n, d.n))
		}
	}
	if samples == 0 || m.n == 0 {
		return
	}
	// Level indices become word offsets into a stripe's level rows; the
	// padding rows bind to the zero level row.
	levels := int32(m.levelRows - 1)
	offs := grow(&s.offs, samples*m.stride)
	for i := 0; i < samples; i++ {
		row := offs[i*m.stride : (i+1)*m.stride]
		for k, l := range lv[i*m.features : (i+1)*m.features] {
			if uint32(l) >= uint32(levels) {
				panic(fmt.Sprintf("bitvec: level index %d out of range [0,%d)", l, levels))
			}
			row[k] = l * bindStripe
		}
		for k := m.features; k < m.stride; k++ {
			row[k] = levels * bindStripe
		}
	}
	rowWords := m.stripes * bindStripe
	p := &s.pass
	*p = bindPass{
		items:     m.items,
		levels:    m.levels,
		offs:      offs,
		stripes:   m.stripes,
		samples:   samples,
		features:  m.stride,
		stride:    m.stride,
		levelRows: m.levelRows,
	}
	thresh := m.features / 2
	var tie uint64
	if m.features%2 == 0 {
		tie = evenMask
	}
	if m.stride <= bindMaxFeatures {
		p.out = grow(&s.out, samples*rowWords)
		for b := range bindPlanes {
			p.masks[b] = -uint64(thresh >> b & 1)
		}
		p.masks[bindPlanes] = tie
		kern.bindMajority(p)
		for i, d := range dsts {
			copy(d.words, p.out[i*rowWords:])
			d.maskTail()
		}
		return
	}
	// Too many features for the register planes: sweep blocks that
	// dump their counts, and merge them into wider bit-sliced sums.
	sumPlanes := bits.Len(uint(m.features))
	sums := grow(&s.sums, samples*sumPlanes*rowWords)
	clear(sums)
	p.planes = grow(&s.planes, samples*bindPlanes*rowWords)
	for k0 := 0; k0 < m.stride; k0 += bindMaxFeatures {
		p.items, p.offs = m.items[k0*bindStripe:], offs[k0:]
		p.features = min(bindMaxFeatures, m.stride-k0)
		kern.bindMajority(p)
		mergePlanes(sums, p.planes, samples, rowWords)
	}
	for i, d := range dsts {
		sum := sums[i*sumPlanes*rowWords:]
		for w := range d.words {
			gt, eq := uint64(0), ^uint64(0)
			for q := sumPlanes - 1; q >= 0; q-- {
				pl, tb := sum[q*rowWords+w], -uint64(thresh>>q&1)
				gt |= eq & pl &^ tb
				eq &^= pl ^ tb
			}
			d.words[w] = gt | eq&tie
		}
		d.maskTail()
	}
}

// mergePlanes adds one block's dumped count planes (bindPass.planes)
// into sums, where sample i's sum plane q is
// sums[(i·Q+q)·rowWords:] for Q planes per sample: dumped plane b is
// added at weight 2^b by a word-wise ripple carry. A sum never exceeds
// the feature count, so Q = bits.Len(features) planes hold every carry.
func mergePlanes(sums, planes []uint64, samples, rowWords int) {
	sumPlanes := len(sums) / (samples * rowWords)
	for i := 0; i < samples; i++ {
		sum := sums[i*sumPlanes*rowWords : (i+1)*sumPlanes*rowWords]
		for b := range bindPlanes {
			for w, c := range planes[(i*bindPlanes+b)*rowWords:][:rowWords] {
				for q := b; c != 0; q++ {
					x := sum[q*rowWords+w]
					sum[q*rowWords+w], c = x^c, x&c
				}
			}
		}
	}
}

// grow returns (*buf)[:n], reallocating when the capacity is short.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}

// bindPass is one bindMajority kernel call over a BindMemory layout:
// for every stripe s < stripes and sample i < samples it counts, per
// bit, Σ_{k<features} items[s][k] ⊕ levels[s][offs[i·stride+k]/8], in
// bindPlanes bit planes. With planes nil it writes the count > threshold
// bits to out[(i·stripes+s)·8 :], the threshold's bit b broadcast in
// masks[b] and masks[bindPlanes] setting the bits of an exact tie;
// otherwise it writes plane b to planes[((i·bindPlanes+b)·stripes+s)·8 :].
// features is a positive multiple of bindBlock, at most
// bindMaxFeatures; every offset is a multiple of 8 below
// levelRows·8.
type bindPass struct {
	out, planes   []uint64
	items, levels []uint64
	offs          []int32
	masks         [bindPlanes + 1]uint64
	stripes       int
	samples       int
	features      int
	stride        int
	levelRows     int
}

// bindMajorityGo is the portable bindMajority: one word column at a
// time (bindColumn), then the same compare as the SIMD tiers.
func bindMajorityGo(p *bindPass) {
	top := bits.Len(uint(p.features)) - 4
	for s := 0; s < p.stripes; s++ {
		items := p.items[s*p.stride*bindStripe:][:p.features*bindStripe]
		levels := p.levels[s*p.levelRows*bindStripe:][:p.levelRows*bindStripe]
		for i := 0; i < p.samples; i++ {
			offs := p.offs[i*p.stride:][:p.features]
			for w := 0; w < bindStripe; w++ {
				pl := bindColumn(items[w:], levels[w:], offs, top)
				word := s*bindStripe + w
				if p.planes != nil {
					for b, x := range pl {
						p.planes[(i*bindPlanes+b)*p.stripes*bindStripe+word] = x
					}
					continue
				}
				gt, eq := uint64(0), ^uint64(0)
				for b := bindPlanes - 1; b >= 0; b-- {
					gt |= eq & pl[b] &^ p.masks[b]
					eq &^= pl[b] ^ p.masks[b]
				}
				p.out[(i*p.stripes+s)*bindStripe+w] = gt | eq&p.masks[bindPlanes]
			}
		}
	}
}

// bindColumn counts one word column of a sweep: bind k is
// items[k·8] ^ levels[offs[k]], folded in the same 16-bind carry-save
// block as the SIMD tiers, with the weight-16 carry rippled into the
// top-4 planes above eights. The ripple has a fixed trip count:
// stopping once the carry is zero mispredicts every few blocks.
func bindColumn(items, levels []uint64, offs []int32, top int) (pl [bindPlanes]uint64) {
	var ones, twos, fours, eights uint64
	var t2a, t2b, t4a, t4b, t8a, t8b, t16 uint64
	upper := pl[4 : 4+top]
	for k := 0; k < len(offs); k += bindBlock {
		it := items[k*bindStripe:]
		of := offs[k : k+bindBlock]
		_ = it[(bindBlock-1)*bindStripe]
		x := func(j int) uint64 { return it[j*bindStripe] ^ levels[of[j]] }
		ones, t2a = csa(ones, x(0), x(1))
		ones, t2b = csa(ones, x(2), x(3))
		twos, t4a = csa(twos, t2a, t2b)
		ones, t2a = csa(ones, x(4), x(5))
		ones, t2b = csa(ones, x(6), x(7))
		twos, t4b = csa(twos, t2a, t2b)
		fours, t8a = csa(fours, t4a, t4b)
		ones, t2a = csa(ones, x(8), x(9))
		ones, t2b = csa(ones, x(10), x(11))
		twos, t4a = csa(twos, t2a, t2b)
		ones, t2a = csa(ones, x(12), x(13))
		ones, t2b = csa(ones, x(14), x(15))
		twos, t4b = csa(twos, t2a, t2b)
		fours, t8b = csa(fours, t4a, t4b)
		eights, t16 = csa(eights, t8a, t8b)
		for b := range upper {
			upper[b], t16 = upper[b]^t16, upper[b]&t16
		}
	}
	pl[0], pl[1], pl[2], pl[3] = ones, twos, fours, eights
	return pl
}

// csa is a full adder over 64 bit lanes: the sum and carry of a+b+c.
func csa(a, b, c uint64) (sum, carry uint64) {
	u := a ^ b
	return u ^ c, a&b | u&c
}
