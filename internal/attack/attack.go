// Package attack injects bit-flip faults into deployed model memory,
// reproducing the paper's two threat models (Section 6.2). An attack
// of rate r flips r·(total stored bits) bits:
//
//   - Random attack: the victim bits are chosen uniformly over all
//     (element, bit) positions — noise, retention errors, untargeted
//     row hammer.
//   - Targeted attack: a progressive bit-search adversary spends the
//     same victim budget on worst-case positions — r·(elements)
//     elements have their most damaging bit flipped (sign bits of
//     fixed-point weights, exponent MSBs of floats).
//
// For binary hypervectors every element is a single bit, so random and
// targeted attacks coincide — the paper's explanation for why HDC's
// quality loss is attack-agnostic.
package attack

import (
	"fmt"
	"math/rand/v2"
)

// Image is a deployed model memory with element/bit structure. An
// element is one logical value (a weight, a hypervector dimension);
// its stored form occupies BitsPerElement bits.
type Image interface {
	// Elements returns the number of attackable elements.
	Elements() int
	// BitsPerElement returns the stored width of one element.
	BitsPerElement() int
	// FlipBit flips bit b (0-based) of element i.
	FlipBit(i, b int)
	// BitDamageOrder returns every bit position of an element ordered
	// from most to least damaging when flipped (e.g. sign bit first
	// for two's complement, exponent MSB first for floats). Its length
	// must equal BitsPerElement.
	BitDamageOrder() []int
}

// Result reports what an injection did.
type Result struct {
	// BitsFlipped is how many bits were flipped.
	BitsFlipped int
	// ElementsHit is how many distinct elements received at least one
	// flip.
	ElementsHit int
}

// Random flips rate·(Elements·BitsPerElement) distinct bits chosen
// uniformly over all bit positions. It returns an error unless
// 0 <= rate <= 1.
func Random(img Image, rate float64, rng *rand.Rand) (Result, error) {
	if err := checkImage(img, rate); err != nil {
		return Result{}, err
	}
	bits := img.BitsPerElement()
	total := img.Elements() * bits
	count := int(rate * float64(total))
	if count == 0 {
		return Result{}, nil
	}
	hit := make(map[int]struct{})
	for _, pos := range sampleDistinct(total, count, rng) {
		elem, b := pos/bits, pos%bits
		img.FlipBit(elem, b)
		hit[elem] = struct{}{}
	}
	return Result{BitsFlipped: count, ElementsHit: len(hit)}, nil
}

// Targeted spends the same budget as Random — rate·(total stored
// bits) flips — on worst-case positions: first the most damaging bit
// of randomly chosen distinct elements; once every element's worst bit
// is taken, the next-most-damaging position, and so on. At equal rate,
// targeted damage therefore upper-bounds random damage. (Beyond ~50%
// element coverage the marginal damage saturates: flipping *every*
// sign bit is a structured transformation that models partially
// absorb — visible as the flattening of the DNN-targeted curve at
// high rates.)
func Targeted(img Image, rate float64, rng *rand.Rand) (Result, error) {
	if err := checkImage(img, rate); err != nil {
		return Result{}, err
	}
	bits := img.BitsPerElement()
	elements := img.Elements()
	count := int(rate * float64(elements*bits))
	if count == 0 {
		return Result{}, nil
	}
	order := img.BitDamageOrder()
	hit := make(map[int]struct{})
	flipped := 0
	for _, b := range order {
		if flipped >= count {
			break
		}
		batch := count - flipped
		if batch > elements {
			batch = elements
		}
		for _, elem := range sampleDistinct(elements, batch, rng) {
			img.FlipBit(elem, b)
			hit[elem] = struct{}{}
		}
		flipped += batch
	}
	return Result{BitsFlipped: flipped, ElementsHit: len(hit)}, nil
}

// Burst injects a clustered fault: every bit of a contiguous span of
// elements flips independently with flipProb. This is the row-hammer
// shape — physical attacks corrupt adjacent memory rows, not uniformly
// scattered bits — and the localized damage the recovery loop's chunk
// detection is most sensitive to. spanFrac is the fraction of the
// element range covered (0, 1]; the span's position is random.
func Burst(img Image, spanFrac, flipProb float64, rng *rand.Rand) (Result, error) {
	if spanFrac <= 0 || spanFrac > 1 {
		return Result{}, fmt.Errorf("attack: span fraction %v out of (0,1]", spanFrac)
	}
	if flipProb < 0 || flipProb > 1 {
		return Result{}, fmt.Errorf("attack: flip probability %v out of [0,1]", flipProb)
	}
	elements := img.Elements()
	bits := img.BitsPerElement()
	span := int(spanFrac * float64(elements))
	if span < 1 {
		span = 1
	}
	lo := 0
	if elements > span {
		lo = rng.IntN(elements - span + 1)
	}
	var res Result
	for e := lo; e < lo+span; e++ {
		hit := false
		for b := 0; b < bits; b++ {
			if rng.Float64() < flipProb {
				img.FlipBit(e, b)
				res.BitsFlipped++
				hit = true
			}
		}
		if hit {
			res.ElementsHit++
		}
	}
	return res, nil
}

func checkImage(img Image, rate float64) error {
	if rate < 0 || rate > 1 {
		return fmt.Errorf("attack: rate %v out of [0,1]", rate)
	}
	bits := img.BitsPerElement()
	order := img.BitDamageOrder()
	if len(order) != bits {
		return fmt.Errorf("attack: damage order has %d entries for %d-bit elements", len(order), bits)
	}
	seen := make(map[int]bool, bits)
	for _, b := range order {
		if b < 0 || b >= bits || seen[b] {
			return fmt.Errorf("attack: invalid damage order %v", order)
		}
		seen[b] = true
	}
	return nil
}

// sampleDistinct returns k distinct indices from [0, n) via Floyd's
// algorithm.
func sampleDistinct(n, k int, rng *rand.Rand) []int {
	if k > n {
		k = n
	}
	chosen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for j := n - k; j < n; j++ {
		t := rng.IntN(j + 1)
		if _, dup := chosen[t]; dup {
			t = j
		}
		chosen[t] = struct{}{}
		out = append(out, t)
	}
	return out
}
