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

// MaxLevelMemory caps the level memory an encoder may be asked to
// build (16 MiB, over 13k levels at D=10k), so a configuration or
// snapshot header cannot demand an unbounded allocation. It is counted
// as the encode kernel stores it: the levels plus one zero row, each in
// whole 512-bit stripes (bitvec.BindRowBytes per row).
const MaxLevelMemory = 16 << 20

// MaxItemMemory caps the item memory an encoder may be asked to build
// (64 MiB, over 50k features at D=10k): one base hypervector per
// feature, stored in the whole 512-bit stripes and 16-row blocks the
// encode kernel reads (bitvec.BindRowBytes per row). The encoder
// stores no per-bind table, so beside the level hypervectors this is
// all it holds.
const MaxItemMemory = 64 << 20

// MaxCounterMemory caps the int32 training counters (classes · dims · 4
// bytes) a model over this encoding may be asked to train (256 MiB,
// over 6,700 classes at D=10k).
const MaxCounterMemory = 256 << 20

// MaxBatch is the most samples one encode pass sweeps together: the
// kernel walks stripes outer and the pass's samples inner, so each
// stripe's item slice is read from L1 by every sample of the pass.
// Longer batches run as consecutive passes.
const MaxBatch = 16

// ValidateLevels checks a level count against dims: at least 2 levels,
// and at most MaxLevelMemory bytes of striped level rows.
func ValidateLevels(dims, levels int) error {
	if levels < 2 {
		return fmt.Errorf("encoding: need at least 2 levels, got %d", levels)
	}
	// A row costs at least 64 bytes, so more levels than cap bytes
	// never fit; testing that first keeps levels+1 from overflowing.
	if levels > MaxLevelMemory || dims > 0 && int64(levels)+1 > MaxLevelMemory/bitvec.BindRowBytes(dims) {
		return fmt.Errorf("encoding: %d levels of %d bits exceed the %d-byte level-memory cap", levels, dims, MaxLevelMemory)
	}
	return nil
}

// ValidateFeatures checks a feature count against dims: at least one
// feature, and at most MaxItemMemory bytes of striped base
// hypervectors.
func ValidateFeatures(dims, features int) error {
	if features <= 0 {
		return fmt.Errorf("encoding: features must be positive, got %d", features)
	}
	// A row costs at least 64 bytes, so more features than cap bytes
	// never fit; testing that first keeps BindRows from overflowing.
	if features > MaxItemMemory || dims > 0 && int64(bitvec.BindRows(features)) > MaxItemMemory/bitvec.BindRowBytes(dims) {
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

// RecordEncoder is the paper's ID–level encoder over raw feature
// vectors. It is deterministic given (dims, levels, normalizer ranges,
// seed), so an encoder never needs to be stored in attackable memory —
// it can always be regenerated. Encoding is safe for concurrent use:
// everything it reads is built at construction.
//
// The encoder owns the whole path from a raw row to a hypervector: its
// Normalizer's ranges pick each feature's level, and the base
// hypervectors B_k and the level hypervectors L(l), laid out in one
// bitvec.BindMemory, are bound on the fly: each bind L(l_k) ⊕ B_k is
// one register XOR inside the fused bind-bundle-majority kernel, so no
// table of products is stored.
type RecordEncoder struct {
	mem     *bitvec.BindMemory
	norm    *Normalizer
	dims    int
	levels  int
	scratch sync.Pool // *Scratch, for calls without caller scratch
}

// NewRecordEncoder builds an encoder for raw feature vectors of
// norm.Features() values: each feature is scaled by norm to [0, 1] and
// quantized into one of levels buckets. Data already in [0, 1] encodes
// through NormalizerFromRanges(zeros, ones).
func NewRecordEncoder(dims, levels int, norm *Normalizer, seed uint64) (*RecordEncoder, error) {
	features := norm.Features()
	if err := ValidateFeatures(dims, features); err != nil {
		return nil, err
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
	levelVecs := make([]*bitvec.Vector, levels)
	for l := range levelVecs {
		levelVecs[l] = lv.Vector(l)
	}
	return &RecordEncoder{
		mem:    bitvec.NewBindMemory(items, levelVecs),
		norm:   norm,
		dims:   dims,
		levels: levels,
	}, nil
}

// Dimensions returns the hypervector dimensionality.
func (e *RecordEncoder) Dimensions() int { return e.dims }

// Features returns the expected original-space feature count.
func (e *RecordEncoder) Features() int { return e.norm.Features() }

// Normalizer returns the ranges the encoder scales raw features by
// (shared, immutable).
func (e *RecordEncoder) Normalizer() *Normalizer { return e.norm }

// Scratch holds the reusable working state of encode calls: the level
// index of every feature of a pass and the kernel's scratch. A Scratch
// is not safe for concurrent use — give each worker its own.
type Scratch struct {
	lv   []int32
	bind bitvec.BindScratch
}

// NewScratch returns encode scratch for this encoder. Buffers grow on
// first use and are kept, so once a scratch has encoded a batch of
// some size, batches up to that size allocate nothing.
func (e *RecordEncoder) NewScratch() *Scratch { return &Scratch{} }

// Encode maps a raw feature vector to a hypervector: bind each
// feature's level vector with its positional base vector, then bundle
// by majority. Only the returned vector is allocated; working state
// comes from an internal scratch pool.
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

// EncodeBatchInto encodes the raw rows[i] into dsts[i] for every i,
// bit-identical to encoding each row on its own. Each pass of at most
// MaxBatch samples maps every raw value straight to its level index,
// then runs one kernel sweep that walks the hypervector's stripes in
// the outer loop and the pass's samples in the inner one. Every row
// must have Features() values and every dst Dimensions() bits. With
// caller-owned dsts and scratch the call is allocation-free once the
// scratch has seen a batch this size; a nil s borrows scratch from the
// encoder's internal pool.
func (e *RecordEncoder) EncodeBatchInto(dsts []*bitvec.Vector, rows [][]float64, s *Scratch) {
	if len(dsts) != len(rows) {
		panic(fmt.Sprintf("encoding: %d destinations for %d rows", len(dsts), len(rows)))
	}
	features := e.norm.Features()
	for i, row := range rows {
		if len(row) != features {
			panic(fmt.Sprintf("encoding: got %d features, want %d", len(row), features))
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
	mins, maxs := e.norm.min, e.norm.max
	for len(rows) > 0 {
		n := min(len(rows), MaxBatch)
		if cap(s.lv) < n*features {
			s.lv = make([]int32, MaxBatch*features)
		}
		lv := s.lv[:n*features]
		for i, row := range rows[:n] {
			for k, v := range row {
				// The float operations of Normalizer.Apply and then
				// LevelMemory.Quantize over [0, 1] (whose division by
				// the unit span is exact), in their order: the level is
				// bit-identical to that reference. A reciprocal multiply
				// would round differently at bucket edges.
				f := 0.5
				if span := maxs[k] - mins[k]; span != 0 {
					f = (v - mins[k]) / span
					if f < 0 {
						f = 0
					}
					if f > 1 {
						f = 1
					}
				}
				l := int(f * float64(e.levels))
				if l < 0 {
					l = 0
				}
				if l >= e.levels {
					l = e.levels - 1
				}
				lv[i*features+k] = int32(l)
			}
		}
		e.mem.MajorityInto(dsts[:n], lv, &s.bind)
		dsts, rows = dsts[n:], rows[n:]
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
// heterogeneous features. Every range is finite with a finite span.
type Normalizer struct {
	min, max []float64
}

// FitNormalizer learns per-feature min/max from the rows of data. It
// returns an error on empty or ragged input, and on a feature whose
// range checkRanges refuses (an infinite value, no non-NaN value, or a
// span past the float64 range).
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
	if err := checkRanges(mn, mx); err != nil {
		return nil, err
	}
	return &Normalizer{min: mn, max: mx}, nil
}

// checkRanges refuses ranges that cannot scale a feature: a NaN or
// infinite bound, a min above its max, or a span max − min that
// overflows to +Inf. Any of these would pin the feature to one level
// whatever its value.
func checkRanges(mins, maxs []float64) error {
	for j, lo := range mins {
		hi := maxs[j]
		switch {
		case math.IsNaN(lo) || math.IsNaN(hi) || math.IsInf(lo, 0) || math.IsInf(hi, 0):
			return fmt.Errorf("encoding: feature %d has non-finite range [%v, %v]", j, lo, hi)
		case lo > hi:
			return fmt.Errorf("encoding: feature %d has min %v > max %v", j, lo, hi)
		case math.IsInf(hi-lo, 1):
			return fmt.Errorf("encoding: feature %d range [%v, %v] spans past the float64 range", j, lo, hi)
		}
	}
	return nil
}

// Features returns the feature count the normalizer was fit on.
func (n *Normalizer) Features() int { return len(n.min) }

// Ranges returns copies of the fitted per-feature minima and maxima.
func (n *Normalizer) Ranges() (mins, maxs []float64) {
	return append([]float64(nil), n.min...), append([]float64(nil), n.max...)
}

// NormalizerFromRanges reconstructs a normalizer from previously
// fitted ranges (e.g. loaded from a saved system). The slices must
// have equal nonzero length and pass the range check FitNormalizer
// applies.
func NormalizerFromRanges(mins, maxs []float64) (*Normalizer, error) {
	if len(mins) == 0 || len(mins) != len(maxs) {
		return nil, fmt.Errorf("encoding: bad range shapes %d/%d", len(mins), len(maxs))
	}
	if err := checkRanges(mins, maxs); err != nil {
		return nil, err
	}
	return &Normalizer{
		min: append([]float64(nil), mins...),
		max: append([]float64(nil), maxs...),
	}, nil
}

// Apply returns a normalized copy of row with each feature mapped to
// [0, 1] (values outside the fit range are clamped; constant features
// map to 0.5). It panics on a feature-count mismatch. RecordEncoder
// runs the same arithmetic fused with its level quantization; Apply is
// the reference its tests hold it to.
func (n *Normalizer) Apply(row []float64) []float64 {
	if len(row) != len(n.min) {
		panic(fmt.Sprintf("encoding: got %d features, want %d", len(row), len(n.min)))
	}
	out := make([]float64, len(row))
	for j, v := range row {
		span := n.max[j] - n.min[j]
		if span == 0 {
			out[j] = 0.5
			continue
		}
		f := (v - n.min[j]) / span
		if f < 0 {
			f = 0
		}
		if f > 1 {
			f = 1
		}
		out[j] = f
	}
	return out
}
