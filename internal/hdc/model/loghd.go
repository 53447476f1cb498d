package model

import (
	"fmt"
	"math/bits"

	"repro/internal/bitvec"
)

// LogHD is the logarithmically class-compressed deployment of a
// trained HDC classifier (PAPERS.md: LogHD). Instead of k binary class
// hypervectors it stores n = ceil(log2 k) (+ optional redundancy) base
// hypervectors plus one n-bit codeword per class: base plane j is the
// bitwise majority over all classes of C_c when bit j of class c's
// codeword is set and ^C_c when clear. A query is scored with n
// Hamming distances instead of k, and class c's score is recovered by
// folding the plane distances through its codeword with signs: +d_j
// where the bit is set (the plane agrees with C_c there, so a close
// query should show a small distance) and −d_j where clear.
//
// The raw plane distances carry a class-independent offset: real class
// prototypes share a large common component (on sensor datasets the
// pairwise prototype similarity runs 70%+), which drags every d_j
// toward a plane-specific bias that the signed fold does not cancel —
// uncorrected, decoding collapses onto whichever codeword best matches
// the bias profile. Compression therefore records each plane's summed
// Hamming distance to the k prototypes, O_j = Σ_c d(C_c, plane_j), and
// decoding centers with it: score_c = Σ_j ±(k·d_j − O_j). The common
// offset cancels exactly and only the class signal remains; the
// integer form keeps serialization bit-exact.
//
// The deployed memory is the attackable surface, exactly as with the
// dense Model: the planes are mutable binary vectors that attacks flip
// and the substrate decays, while the codewords and centering offsets
// are small derived constants that live with the encoder on the safe
// side of the threat model. What compression buys —
// roughly k/n less class memory — it pays for in robustness: a flipped
// plane bit perturbs every class's score at that dimension, so the
// same bit-flip budget does proportionally more damage, and the
// per-class substitution recovery of the paper has no per-class
// vectors to rewrite. The experiments package quantifies that trade.
type LogHD struct {
	dims   int
	planes []*bitvec.Vector
	// decode holds the codewords and centering offsets. It is fixed at
	// construction and shared by clones and frozen images.
	decode *logDecode
	pool   *FrozenPool
}

// newLogHD assembles a deployment around its planes and decode table,
// with a pool whose rows hold the planes while scoring scratch still
// spans the classes.
func newLogHD(dims int, planes []*bitvec.Vector, d *logDecode) *LogHD {
	return &LogHD{dims: dims, planes: planes, decode: d,
		pool: &FrozenPool{rows: len(planes), classes: d.classes, dims: dims}}
}

// maxLogHDPlanes bounds the plane count: codewords are stored in
// uint32s and the deterministic codeword search scans the full 2^n
// universe, so n is kept small (it only needs to clear log2 k plus a
// few redundancy planes; beyond that the compression advantage is
// gone anyway).
const maxLogHDPlanes = 16

// CompressLogHD folds a trained dense model into a LogHD deployment
// with n = ceil(log2 k) + extraPlanes base hypervectors. extraPlanes
// adds redundancy planes that widen codeword Hamming separation at
// the cost of memory (0 is the paper operating point; 2–3 buys back
// some robustness). The construction is deterministic: codewords come
// from a greedy max-min-distance scan over the n-bit universe and
// planes are parity-tie-broken majorities, so compressing the same
// model twice yields bit-identical deployments.
func CompressLogHD(m *Model, extraPlanes int) (*LogHD, error) {
	if m.deployed == nil {
		return nil, fmt.Errorf("model: compress before Train")
	}
	if extraPlanes < 0 {
		return nil, fmt.Errorf("model: negative redundancy planes %d", extraPlanes)
	}
	n := bits.Len(uint(m.classes-1)) + extraPlanes
	if n < 1 {
		n = 1
	}
	if n > maxLogHDPlanes {
		return nil, fmt.Errorf("model: %d planes exceeds the %d-plane cap", n, maxLogHDPlanes)
	}
	code := assignCodewords(m.classes, n)
	// Each plane is a bind-majority over the classes: class c binds to
	// the all-zeros level (voting C_c) where bit j of its codeword is
	// set and to the all-ones level (voting ^C_c) where it is clear. All
	// n planes bundle in one kernel sweep.
	zeros := bitvec.New(m.dims)
	mem := bitvec.NewBindMemory(m.deployed, []*bitvec.Vector{zeros, zeros.Not()})
	lv := make([]int32, n*m.classes)
	planes := make([]*bitvec.Vector, n)
	for j := range planes {
		planes[j] = bitvec.New(m.dims)
		for c, w := range code {
			lv[j*m.classes+c] = int32(1 - w>>uint(j)&1)
		}
	}
	mem.MajorityInto(planes, lv, &bitvec.BindScratch{})
	// Centering offsets: each plane's summed distance to the prototypes
	// it was built from. Derived once here, fixed thereafter — attacks
	// mutate planes, not the decode constants.
	offsets := make([]int64, n)
	for j, p := range planes {
		for _, v := range m.deployed {
			offsets[j] += int64(v.Hamming(p))
		}
	}
	return newLogHD(m.dims, planes, &logDecode{classes: m.classes, code: code, offsets: offsets}), nil
}

// assignCodewords picks k distinct n-bit codewords by deterministic
// greedy max-min Hamming selection over the full 2^n universe: start
// from zero, then repeatedly take the word whose minimum distance to
// every chosen word is largest (ties to the smallest word). This
// spreads classes as far apart as the plane budget allows without any
// stored codebook — both ends of a serialization rebuild it from
// (classes, planes) alone.
func assignCodewords(k, n int) []uint32 {
	universe := uint32(1) << uint(n)
	code := make([]uint32, k)
	// minDist[w] tracks w's distance to the nearest chosen codeword.
	minDist := make([]uint8, universe)
	for w := range minDist {
		minDist[w] = uint8(n) + 1
	}
	chosen := uint32(0)
	for i := 0; i < k; i++ {
		code[i] = chosen
		minDist[chosen] = 0
		best, bestD := uint32(0), -1
		for w := uint32(0); w < universe; w++ {
			if d := bits.OnesCount32(w ^ chosen); int(minDist[w]) > d {
				minDist[w] = uint8(d)
			}
			if int(minDist[w]) > bestD {
				best, bestD = w, int(minDist[w])
			}
		}
		chosen = best
	}
	return code
}

// Dimensions returns the hypervector dimensionality D.
func (l *LogHD) Dimensions() int { return l.dims }

// Classes returns the number of classes k.
func (l *LogHD) Classes() int { return l.decode.classes }

// Planes returns the number of stored base hypervectors n.
func (l *LogHD) Planes() int { return len(l.planes) }

// PlaneVector returns base plane j — deployed, attackable memory, like
// Model.ClassVector. Mutating it through attacks or substrate decay is
// the threat model; recovery has no per-class image to substitute
// from, which is the robustness cost of compression.
func (l *LogHD) PlaneVector(j int) *bitvec.Vector {
	if j < 0 || j >= len(l.planes) {
		panic(fmt.Sprintf("model: plane %d out of range [0,%d)", j, len(l.planes)))
	}
	return l.planes[j]
}

// Codeword returns class c's n-bit codeword.
func (l *LogHD) Codeword(c int) uint32 {
	if c < 0 || c >= l.Classes() {
		panic(fmt.Sprintf("model: class %d out of range [0,%d)", c, l.Classes()))
	}
	return l.decode.code[c]
}

// StorageBits returns the deployed memory footprint in bits: n planes
// of D bits plus the k stored codewords and the n centering offsets.
// Compare against the dense k·D (Model's class vectors) for the
// compression ratio.
func (l *LogHD) StorageBits() int {
	return len(l.planes)*l.dims + 32*l.Classes() + 64*len(l.planes)
}

// Clone deep-copies the planes for concurrent use; the immutable
// decode table is shared.
func (l *LogHD) Clone() *LogHD {
	return newLogHD(l.dims, l.SnapshotDeployed(), l.decode)
}

// SnapshotDeployed deep-copies the deployed planes (the recovery
// experiments' safe reference copy), mirroring Model.SnapshotDeployed.
func (l *LogHD) SnapshotDeployed() []*bitvec.Vector {
	out := make([]*bitvec.Vector, len(l.planes))
	for j, p := range l.planes {
		out[j] = p.Clone()
	}
	return out
}

// RestoreDeployed reinstalls a snapshot taken by SnapshotDeployed.
func (l *LogHD) RestoreDeployed(vs []*bitvec.Vector) {
	if len(vs) != len(l.planes) {
		panic(fmt.Sprintf("model: snapshot has %d planes, want %d", len(vs), len(l.planes)))
	}
	for j, v := range vs {
		if v.Len() != l.dims {
			panic(fmt.Sprintf("model: plane %d has %d dims, want %d", j, v.Len(), l.dims))
		}
		l.planes[j].CopyFrom(v)
	}
}

// Predict returns the class whose codeword-decoded score for q is
// smallest (ties to the lowest class index, matching bitvec.Nearest).
func (l *LogHD) Predict(q *bitvec.Vector) int { return l.view().Predict(q) }

// PredictWithConfidence returns the predicted class and its softmax
// confidence, allocation-free in steady state — the same interface as
// Model.PredictWithConfidence, so serving paths swap backends freely.
func (l *LogHD) PredictWithConfidence(q *bitvec.Vector, temperature float64) (int, float64) {
	return l.view().PredictWithConfidence(q, temperature)
}

// AccuracyParallel evaluates accuracy over encoded queries across the
// given worker count (<= 0 selects GOMAXPROCS), mirroring
// Model.AccuracyParallel.
func (l *LogHD) AccuracyParallel(qs []*bitvec.Vector, labels []int, workers int) float64 {
	return l.view().AccuracyParallel(qs, labels, workers)
}
