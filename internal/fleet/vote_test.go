package fleet

import (
	"hash/fnv"
	"math/rand/v2"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/core"
)

// referenceChunkHash is the wire format's definition of the chunk
// digest, spelled out with hash/fnv over a copied slice: FNV-1a over
// the little-endian bytes of the width, then of each packed word of
// v.Slice(lo, hi). ChunkHash must match it exactly — node summaries
// and in-process summaries are compared hash for hash.
func referenceChunkHash(v *bitvec.Vector, lo, hi int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(w uint64) {
		for i := range b {
			b[i] = byte(w >> (8 * i))
		}
		h.Write(b[:])
	}
	put(uint64(hi - lo))
	for _, w := range v.Slice(lo, hi).Words() {
		put(w)
	}
	return h.Sum64()
}

func TestChunkHashMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 0))
	for _, dims := range []int{1, 63, 64, 65, 127, 128, 129, 200, 1000} {
		v := bitvec.Random(dims, rng)
		// Every chunk count partitions the vector into ranges with
		// every alignment the sweep can produce.
		for chunks := 1; chunks <= dims; chunks++ {
			for k := 0; k < chunks; k++ {
				lo, hi := ChunkBounds(dims, chunks, k)
				if got, want := ChunkHash(v, lo, hi), referenceChunkHash(v, lo, hi); got != want {
					t.Fatalf("D=%d chunks=%d k=%d [%d,%d): ChunkHash %016x, reference %016x", dims, chunks, k, lo, hi, got, want)
				}
			}
		}
		// Arbitrary unaligned ranges, including empty ones.
		for i := 0; i < 200; i++ {
			lo := rng.IntN(dims + 1)
			hi := lo + rng.IntN(dims-lo+1)
			if got, want := ChunkHash(v, lo, hi), referenceChunkHash(v, lo, hi); got != want {
				t.Fatalf("D=%d [%d,%d): ChunkHash %016x, reference %016x", dims, lo, hi, got, want)
			}
		}
	}
}

func TestChunkHashAllocationFree(t *testing.T) {
	v := bitvec.Random(10000, rand.New(rand.NewPCG(5, 0)))
	if n := testing.AllocsPerRun(100, func() { ChunkHash(v, 17, 9001) }); n != 0 {
		t.Fatalf("ChunkHash allocates %v times per call, want 0", n)
	}
}

// BenchmarkSummarize hashes a 12-class, D=10,000 model in 64 chunks —
// one in-process member's share of every anti-entropy sweep.
func BenchmarkSummarize(b *testing.B) {
	rng := rand.New(rand.NewPCG(5, 0))
	xs := make([][]float64, 48)
	ys := make([]int, len(xs))
	for i := range xs {
		xs[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		ys[i] = i % 12
	}
	sys, err := core.Train(xs, ys, 12, core.Config{Dimensions: 10000, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	r, err := NewReplica(sys, nil, 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = r.Summary(64)
	}
}
