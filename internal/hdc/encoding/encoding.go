// Package encoding maps original-space feature vectors into binary
// hypervectors.
//
// The primary encoder is the paper's ID–level record encoder
// (Section 3.1):
//
//	H = Σ_k  L(f_k) ⊕ B_k
//
// where B_k is the random base hypervector that identifies feature
// position k, L(f_k) is the level hypervector of the quantized feature
// value, ⊕ is XOR binding, and Σ is majority bundling. The result is a
// binary hypervector whose bits spread the sample's information
// holographically across all D dimensions.
package encoding

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/bitvec"
	"repro/internal/hdc"
)

// Encoder converts an original-space feature vector into a binary
// hypervector of fixed dimensionality.
type Encoder interface {
	// Encode maps features to a hypervector. It panics if the feature
	// count does not match the encoder's configuration.
	Encode(features []float64) *bitvec.Vector
	// Dimensions returns the hypervector dimensionality produced.
	Dimensions() int
}

// DefaultBoundCacheBudget caps the memory the flat bound table may
// occupy (64 MiB). The full table costs BoundCacheBytes; encoders whose
// table fits the budget build it at construction, others compute each
// bind on the fly into scratch.
const DefaultBoundCacheBudget = 64 << 20

// MaxLevelMemory caps the level memory (levels · dims/8 bytes) an
// encoder may be asked to build (16 MiB, over 13k levels at D=10k), so
// a configuration or snapshot header cannot demand an unbounded
// allocation.
const MaxLevelMemory = 16 << 20

// MaxItemMemory caps the item memory (features · dims/8 bytes, one base
// hypervector per feature) an encoder may be asked to build (64 MiB,
// over 50k features at D=10k). The bound table on top of it is capped
// by DefaultBoundCacheBudget.
const MaxItemMemory = 64 << 20

// MaxCounterMemory caps the int32 training counters (classes · dims · 4
// bytes) a model over this encoding may be asked to train (256 MiB,
// over 6,700 classes at D=10k).
const MaxCounterMemory = 256 << 20

// MaxBatch is the most samples one batch-major pass encodes together:
// the per-sample carry-save state of a pass stays cache-resident next to
// the table rows it shares. Longer batches run as consecutive passes.
const MaxBatch = 16

// BoundCacheBytes returns the memory cost of a full bound table:
// features·levels vectors of dims bits, i.e. features·levels·dims/8
// bytes (rounded up to whole 64-bit words per vector).
func BoundCacheBytes(dims, features, levels int) int64 {
	words := int64((dims + 63) / 64)
	return int64(features) * int64(levels) * words * 8
}

// ValidateLevels checks a level count against dims: at least 2 levels,
// and at most MaxLevelMemory bytes of level hypervectors.
func ValidateLevels(dims, levels int) error {
	if levels < 2 {
		return fmt.Errorf("encoding: need at least 2 levels, got %d", levels)
	}
	if dims > 0 && int64(levels) > MaxLevelMemory*8/int64(dims) {
		return fmt.Errorf("encoding: %d levels of %d bits exceed the %d-byte level-memory cap", levels, dims, MaxLevelMemory)
	}
	return nil
}

// ValidateFeatures checks a feature count against dims: at least one
// feature, and at most MaxItemMemory bytes of base hypervectors.
func ValidateFeatures(dims, features int) error {
	if features <= 0 {
		return fmt.Errorf("encoding: features must be positive, got %d", features)
	}
	if words := int64((dims + 63) / 64); words > 0 && int64(features) > MaxItemMemory/(8*words) {
		return fmt.Errorf("encoding: %d features of %d bits exceed the %d-byte item-memory cap", features, dims, MaxItemMemory)
	}
	return nil
}

// ValidateClasses checks a class count against dims: at most
// MaxCounterMemory bytes of int32 training counters.
func ValidateClasses(dims, classes int) error {
	if dims > 0 && int64(classes) > MaxCounterMemory/(4*int64(dims)) {
		return fmt.Errorf("encoding: %d classes of %d counters exceed the %d-byte training-counter cap", classes, dims, MaxCounterMemory)
	}
	return nil
}

// RecordEncoder is the paper's ID–level encoder. It is deterministic
// given (dims, features, levels, seed), so an encoder never needs to be
// stored in attackable memory — it can always be regenerated. Encoding
// is safe for concurrent use: everything it reads is built at
// construction.
//
// The bound table stores every bind L(l) ⊕ B_k as one flat row, so
// the encode hot loop bundles table rows instead of binding. It is
// built whenever it fits DefaultBoundCacheBudget; otherwise the base
// hypervectors are kept and each group of eight binds is computed into
// scratch before feeding the same bundler.
type RecordEncoder struct {
	levels   *hdc.LevelMemory
	dims     int
	words    int
	features int
	lo, hi   float64

	// table holds L(l) ⊕ B_k at word offset (k·levels + l)·words; nil
	// when over budget, in which case items holds B_k.
	table   []uint64
	items   []*bitvec.Vector
	scratch sync.Pool // *Scratch, for calls without caller scratch
}

// NewRecordEncoder builds an encoder for feature vectors of length
// features, quantizing each feature into levels buckets over the
// value range [lo, hi].
func NewRecordEncoder(dims, features, levels int, lo, hi float64, seed uint64) (*RecordEncoder, error) {
	return newRecordEncoder(dims, features, levels, lo, hi, seed, DefaultBoundCacheBudget)
}

// newRecordEncoder is NewRecordEncoder with an explicit bound-table
// budget; tests pass 0 to reach the over-budget path.
func newRecordEncoder(dims, features, levels int, lo, hi float64, seed uint64, budget int64) (*RecordEncoder, error) {
	if err := ValidateFeatures(dims, features); err != nil {
		return nil, err
	}
	if lo >= hi {
		return nil, fmt.Errorf("encoding: invalid value range [%v, %v]", lo, hi)
	}
	if err := ValidateLevels(dims, levels); err != nil {
		return nil, err
	}
	im, err := hdc.NewItemMemory(dims, seed)
	if err != nil {
		return nil, err
	}
	lv, err := hdc.NewLevelMemory(dims, levels, seed^0xE7037ED1A0B428DB)
	if err != nil {
		return nil, err
	}
	items := make([]*bitvec.Vector, features)
	for k := range items {
		items[k] = im.Vector(k)
	}
	e := &RecordEncoder{levels: lv, dims: dims, words: (dims + 63) / 64, features: features, lo: lo, hi: hi}
	if BoundCacheBytes(dims, features, levels) > budget {
		e.items = items
		return e, nil
	}
	e.table = make([]uint64, features*levels*e.words)
	row := e.table
	for _, b := range items {
		for l := 0; l < levels; l++ {
			lw, bw := lv.Vector(l).Words(), b.Words()
			for i := range lw {
				row[i] = lw[i] ^ bw[i]
			}
			row = row[e.words:]
		}
	}
	return e, nil
}

// BoundCacheEnabled reports whether the flat bound table was built.
func (e *RecordEncoder) BoundCacheEnabled() bool { return e.table != nil }

// Dimensions returns the hypervector dimensionality.
func (e *RecordEncoder) Dimensions() int { return e.dims }

// Features returns the expected original-space feature count.
func (e *RecordEncoder) Features() int { return e.features }

// Scratch holds the reusable working state of encode calls: one
// bit-sliced bundling counter per sample of a batch-major pass, the
// row gather list, and (over budget) the bind rows. A Scratch is not
// safe for concurrent use — give each worker its own.
type Scratch struct {
	counters []*bitvec.PlaneCounter
	group    [8][]uint64
	binds    [8]*bitvec.Vector
}

// NewScratch returns encode scratch sized for this encoder. Counters
// for batch slots are added on first use and kept, so once a scratch
// has encoded a batch of some size, batches up to that size allocate
// nothing.
func (e *RecordEncoder) NewScratch() *Scratch {
	s := &Scratch{}
	if e.table == nil {
		for j := range s.binds {
			s.binds[j] = bitvec.New(e.dims)
		}
	}
	return s
}

// Encode maps a feature vector to a hypervector: bind each feature's
// level vector with its positional base vector, then bundle by
// majority. Only the returned vector is allocated; working state comes
// from an internal scratch pool.
func (e *RecordEncoder) Encode(features []float64) *bitvec.Vector {
	out := bitvec.New(e.dims)
	e.EncodeInto(out, features, nil)
	return out
}

// EncodeInto encodes features into dst, a batch of one. With a caller-
// owned dst and scratch the call is allocation-free; a nil s borrows
// scratch from the encoder's internal pool.
func (e *RecordEncoder) EncodeInto(dst *bitvec.Vector, features []float64, s *Scratch) {
	e.EncodeBatchInto([]*bitvec.Vector{dst}, [][]float64{features}, s)
}

// EncodeBatchInto encodes rows[i] into dsts[i] for every i, bit-
// identical to encoding each row on its own. It walks feature groups
// of eight in the outer loop and the batch's samples in the inner one,
// each sample keeping its own carry-save state, so a group's table rows
// stay in cache across the whole batch; batches longer than MaxBatch
// run as consecutive passes. Every row must have Features() values and
// every dst Dimensions() bits. With caller-owned dsts and scratch the
// call is allocation-free once the scratch has seen a batch this size;
// a nil s borrows scratch from the encoder's internal pool.
func (e *RecordEncoder) EncodeBatchInto(dsts []*bitvec.Vector, rows [][]float64, s *Scratch) {
	if len(dsts) != len(rows) {
		panic(fmt.Sprintf("encoding: %d destinations for %d rows", len(dsts), len(rows)))
	}
	for i, row := range rows {
		if len(row) != e.features {
			panic(fmt.Sprintf("encoding: got %d features, want %d", len(row), e.features))
		}
		if dsts[i].Len() != e.dims {
			panic(fmt.Sprintf("encoding: dst has %d dims, want %d", dsts[i].Len(), e.dims))
		}
	}
	if s == nil {
		var ok bool
		if s, ok = e.scratch.Get().(*Scratch); !ok {
			s = e.NewScratch()
		}
		defer e.scratch.Put(s)
	}
	for len(rows) > 0 {
		n := min(len(rows), MaxBatch)
		e.encodePass(dsts[:n], rows[:n], s)
		dsts, rows = dsts[n:], rows[n:]
	}
}

// encodePass runs one batch-major pass over at most MaxBatch samples.
func (e *RecordEncoder) encodePass(dsts []*bitvec.Vector, rows [][]float64, s *Scratch) {
	for len(s.counters) < len(rows) {
		c := bitvec.NewPlaneCounter(e.dims)
		c.Presize(e.features)
		s.counters = append(s.counters, c)
	}
	cs := s.counters[:len(rows)]
	for _, c := range cs {
		c.Reset()
	}
	nl := e.levels.Levels()
	for k0 := 0; k0 < e.features; k0 += len(s.group) {
		g := s.group[:min(len(s.group), e.features-k0)]
		for i, row := range rows {
			for j := range g {
				k := k0 + j
				l := e.levels.Quantize(row[k], e.lo, e.hi)
				if e.table != nil {
					off := (k*nl + l) * e.words
					g[j] = e.table[off : off+e.words : off+e.words]
				} else {
					e.levels.Vector(l).XorInto(s.binds[j], e.items[k])
					g[j] = s.binds[j].Words()
				}
			}
			cs[i].AddGroup(g)
		}
	}
	for i, c := range cs {
		c.MajorityInto(dsts[i])
	}
}

// NGramEncoder encodes symbol sequences by binding permuted symbol
// hypervectors over a sliding window and bundling all window vectors —
// the standard HDC n-gram text/sequence encoder. It exists for the
// streaming examples and as a second exercise of the primitive layer.
type NGramEncoder struct {
	items *hdc.ItemMemory
	n     int
}

// NewNGramEncoder builds an n-gram encoder over symbol IDs. n must be
// at least 1.
func NewNGramEncoder(dims, n int, seed uint64) (*NGramEncoder, error) {
	if n < 1 {
		return nil, fmt.Errorf("encoding: n-gram size must be >= 1, got %d", n)
	}
	items, err := hdc.NewItemMemory(dims, seed)
	if err != nil {
		return nil, err
	}
	return &NGramEncoder{items: items, n: n}, nil
}

// Dimensions returns the hypervector dimensionality.
func (e *NGramEncoder) Dimensions() int { return e.items.Dimensions() }

// EncodeSequence maps a symbol sequence to a hypervector. Sequences
// shorter than n yield the bundle of their permuted symbols. It panics
// on an empty sequence.
func (e *NGramEncoder) EncodeSequence(symbols []int) *bitvec.Vector {
	if len(symbols) == 0 {
		panic("encoding: empty sequence")
	}
	d := e.Dimensions()
	c := bitvec.NewCounter(d)
	if len(symbols) < e.n {
		for i, s := range symbols {
			c.Add(hdc.Permute(e.items.Vector(s), i))
		}
		return c.Threshold()
	}
	for start := 0; start+e.n <= len(symbols); start++ {
		gram := hdc.Permute(e.items.Vector(symbols[start]), e.n-1)
		for j := 1; j < e.n; j++ {
			gram.XorInPlace(hdc.Permute(e.items.Vector(symbols[start+j]), e.n-1-j))
		}
		c.Add(gram)
	}
	return c.Threshold()
}

// Normalizer rescales features to [0, 1] using per-feature min/max
// learned from training data, so a single level-memory range serves
// heterogeneous features.
type Normalizer struct {
	min, max []float64
}

// FitNormalizer learns per-feature min/max from the rows of data. It
// returns an error on empty or ragged input.
func FitNormalizer(data [][]float64) (*Normalizer, error) {
	if len(data) == 0 || len(data[0]) == 0 {
		return nil, fmt.Errorf("encoding: cannot fit normalizer on empty data")
	}
	n := len(data[0])
	mn := make([]float64, n)
	mx := make([]float64, n)
	for j := 0; j < n; j++ {
		mn[j] = math.Inf(1)
		mx[j] = math.Inf(-1)
	}
	for i, row := range data {
		if len(row) != n {
			return nil, fmt.Errorf("encoding: ragged row %d: %d features, want %d", i, len(row), n)
		}
		for j, v := range row {
			if v < mn[j] {
				mn[j] = v
			}
			if v > mx[j] {
				mx[j] = v
			}
		}
	}
	return &Normalizer{min: mn, max: mx}, nil
}

// Features returns the feature count the normalizer was fit on.
func (n *Normalizer) Features() int { return len(n.min) }

// Ranges returns copies of the fitted per-feature minima and maxima.
func (n *Normalizer) Ranges() (mins, maxs []float64) {
	return append([]float64(nil), n.min...), append([]float64(nil), n.max...)
}

// NormalizerFromRanges reconstructs a normalizer from previously
// fitted ranges (e.g. loaded from a saved system). The slices must
// have equal nonzero length.
func NormalizerFromRanges(mins, maxs []float64) (*Normalizer, error) {
	if len(mins) == 0 || len(mins) != len(maxs) {
		return nil, fmt.Errorf("encoding: bad range shapes %d/%d", len(mins), len(maxs))
	}
	for j := range mins {
		if mins[j] > maxs[j] {
			return nil, fmt.Errorf("encoding: feature %d has min %v > max %v", j, mins[j], maxs[j])
		}
	}
	return &Normalizer{
		min: append([]float64(nil), mins...),
		max: append([]float64(nil), maxs...),
	}, nil
}

// Apply returns a normalized copy of row with each feature mapped to
// [0, 1] (values outside the fit range are clamped; constant features
// map to 0.5). It panics on a feature-count mismatch.
func (n *Normalizer) Apply(row []float64) []float64 {
	out := make([]float64, len(row))
	n.ApplyInto(out, row)
	return out
}

// ApplyInto normalizes row into dst without allocating (the zero-alloc
// variant the encode scratch path uses). dst and row must both have the
// fitted feature count.
func (n *Normalizer) ApplyInto(dst, row []float64) {
	if len(row) != len(n.min) {
		panic(fmt.Sprintf("encoding: got %d features, want %d", len(row), len(n.min)))
	}
	if len(dst) != len(row) {
		panic(fmt.Sprintf("encoding: dst has %d features, want %d", len(dst), len(row)))
	}
	for j, v := range row {
		span := n.max[j] - n.min[j]
		if span == 0 {
			dst[j] = 0.5
			continue
		}
		f := (v - n.min[j]) / span
		if f < 0 {
			f = 0
		}
		if f > 1 {
			f = 1
		}
		dst[j] = f
	}
}

// ApplyAll normalizes every row of data, returning a new matrix.
func (n *Normalizer) ApplyAll(data [][]float64) [][]float64 {
	out := make([][]float64, len(data))
	for i, row := range data {
		out[i] = n.Apply(row)
	}
	return out
}
