// Package hdc implements the hyperdimensional-computing primitives the
// paper builds on: item memories of random base hypervectors, level
// hypervectors for encoding continuous values, and the three HDC
// operators — bind (XOR), bundle (element-wise majority), and permute
// (cyclic rotation).
//
// Hypervectors here are binary (bitvec.Vector); per Section 3.2 of the
// paper, the binary model maximizes robustness, and higher-precision
// class models are handled by hdc/model's quantized variant.
package hdc

import (
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/stats"
)

// DefaultDimensions is the hypervector dimensionality used throughout
// the paper's main experiments.
const DefaultDimensions = 10000

// ItemMemory deterministically maps integer symbol IDs to pseudo-random
// base hypervectors. All vectors are derived from a single seed, so an
// item memory can be regenerated from (seed, dimensions) alone — the
// property the paper's recovery framework relies on: base hypervectors
// never need to be stored in attackable memory.
type ItemMemory struct {
	dims  int
	seed  uint64
	cache map[int]*bitvec.Vector
}

// NewItemMemory creates an item memory producing vectors of the given
// dimensionality. It returns an error if dims is not positive.
func NewItemMemory(dims int, seed uint64) (*ItemMemory, error) {
	if dims <= 0 {
		return nil, fmt.Errorf("hdc: dimensions must be positive, got %d", dims)
	}
	return &ItemMemory{dims: dims, seed: seed, cache: make(map[int]*bitvec.Vector)}, nil
}

// Dimensions returns the hypervector dimensionality.
func (m *ItemMemory) Dimensions() int { return m.dims }

// Vector returns the base hypervector for symbol id. The same id always
// yields the same vector; distinct ids yield near-orthogonal vectors
// (expected similarity 0.5). The returned vector is shared — callers
// must not mutate it.
func (m *ItemMemory) Vector(id int) *bitvec.Vector {
	if v, ok := m.cache[id]; ok {
		return v
	}
	rng := stats.NewRNG(m.seed ^ (0xD1B54A32D192ED03 * uint64(id+1)))
	v := bitvec.Random(m.dims, rng)
	m.cache[id] = v
	return v
}

// LevelMemory encodes scalar magnitudes as hypervectors such that
// nearby levels are similar and distant levels are near-orthogonal
// (a thermometer code in hyperspace). Level 0 is a random vector;
// each subsequent level flips a fresh contiguous slice of D/levels
// randomly chosen positions, so level i and level j differ in
// ~|i-j|·D/levels bits.
type LevelMemory struct {
	dims    int
	levels  int
	vectors []*bitvec.Vector
}

// NewLevelMemory builds a level memory with the given number of
// quantization levels. It returns an error unless dims > 0 and
// levels >= 2.
func NewLevelMemory(dims, levels int, seed uint64) (*LevelMemory, error) {
	if dims <= 0 {
		return nil, fmt.Errorf("hdc: dimensions must be positive, got %d", dims)
	}
	if levels < 2 {
		return nil, fmt.Errorf("hdc: need at least 2 levels, got %d", levels)
	}
	rng := stats.NewRNG(seed ^ 0xA0761D6478BD642F)
	vectors := make([]*bitvec.Vector, levels)
	vectors[0] = bitvec.Random(dims, rng)

	// A random permutation of dimensions; each level flips the next
	// span of it, so flips never cancel between consecutive levels.
	perm := rng.Perm(dims)
	span := dims / (levels - 1)
	if span == 0 {
		span = 1
	}
	pos := 0
	for l := 1; l < levels; l++ {
		v := vectors[l-1].Clone()
		for i := 0; i < span && pos < dims; i++ {
			v.Flip(perm[pos])
			pos++
		}
		vectors[l] = v
	}
	return &LevelMemory{dims: dims, levels: levels, vectors: vectors}, nil
}

// Dimensions returns the hypervector dimensionality.
func (m *LevelMemory) Dimensions() int { return m.dims }

// Levels returns the number of quantization levels.
func (m *LevelMemory) Levels() int { return m.levels }

// Vector returns the hypervector for quantization level l. The returned
// vector is shared — callers must not mutate it. It panics if l is out
// of range.
func (m *LevelMemory) Vector(l int) *bitvec.Vector {
	if l < 0 || l >= m.levels {
		panic(fmt.Sprintf("hdc: level %d out of range [0,%d)", l, m.levels))
	}
	return m.vectors[l]
}

// Quantize maps a value in [lo, hi] to a level index, clamping values
// outside the range. It panics if lo >= hi.
func (m *LevelMemory) Quantize(v, lo, hi float64) int {
	if lo >= hi {
		panic("hdc: Quantize requires lo < hi")
	}
	frac := (v - lo) / (hi - lo)
	l := int(frac * float64(m.levels))
	if l < 0 {
		l = 0
	}
	if l >= m.levels {
		l = m.levels - 1
	}
	return l
}

// Bind returns the binding (XOR) of two hypervectors. Binding is
// self-inverse and distance-preserving.
func Bind(a, b *bitvec.Vector) *bitvec.Vector { return a.Xor(b) }

// Permute returns a cyclically rotated copy of v; rotation by distinct
// amounts produces near-orthogonal vectors and encodes sequence
// position.
func Permute(v *bitvec.Vector, k int) *bitvec.Vector { return v.RotateLeft(k) }

// Bundle returns the element-wise majority of the given hypervectors.
// It panics if vs is empty or lengths differ.
func Bundle(vs ...*bitvec.Vector) *bitvec.Vector {
	if len(vs) == 0 {
		panic("hdc: Bundle of no vectors")
	}
	c := bitvec.NewCounter(vs[0].Len())
	for _, v := range vs {
		c.Add(v)
	}
	return c.Threshold()
}

// Similarity returns the normalized Hamming similarity of two
// hypervectors in [0, 1].
func Similarity(a, b *bitvec.Vector) float64 { return a.Similarity(b) }
