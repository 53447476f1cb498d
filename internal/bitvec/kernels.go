package bitvec

import (
	"fmt"
	"math/bits"
	"os"
	"sort"
)

// kernelTable is one complete set of word-level SIMD kernels. Every
// hot inner loop in this package — popcount-Hamming scoring, the
// signed tally accumulation of training and the bind-bundle-majority
// sweep that builds every bundle (record
// encoding and LogHD planes) — dispatches through the active table, so
// an architecture back end swaps all of them at once.
//
// Contract: every kernel must be bit-identical to the portable
// reference on all inputs (any length, any tail, any alignment). The
// equivalence suite in kernels_simd_test.go and FuzzKernelEquivalence
// pin each registered table against the portable one.
type kernelTable struct {
	name string

	// popcntXor returns popcount(a XOR b) over the paired words. The
	// caller guarantees len(b) >= len(a).
	popcntXor func(a, b []uint64) int

	// popcntXorChunks writes into out[j] the popcount of a XOR b over
	// the bit range [bounds[j], bounds[j+1]), partial edge words
	// masked: one call makes a whole row of the chunk table. The
	// caller guarantees len(bounds) == len(out)+1, bounds
	// nondecreasing and within a and b.
	popcntXorChunks func(a, b []uint64, bounds, out []int)

	// addScaled adds +w to tallies[i] when bit i of words is set and
	// -w when clear, for len(words)*64 tallies (the caller peels the
	// partial tail word).
	addScaled func(tallies []int32, words []uint64, w int32)

	// bindMajority is the fused bind-bundle-majority sweep behind
	// record encoding and LogHD compression, over a BindMemory layout
	// (see bindPass): it binds item and level rows on the fly, counts
	// the binds per bit in bit planes held in registers for the whole
	// feature sweep, and ends in the threshold compare or a plane
	// dump.
	bindMajority func(p *bindPass)
}

var portableTable = kernelTable{
	name:            "portable",
	popcntXor:       popcntXorGo,
	popcntXorChunks: popcntXorChunksGo,
	addScaled:       addScaledGo,
	bindMajority:    bindMajorityGo,
}

// kern is the active kernel table, selected at init by the
// architecture dispatch file (runtime CPU-feature detection) and
// defaulting to the portable reference. The `purego` build tag
// excludes every architecture back end, pinning kern to portable.
var kern = portableTable

// kernelRegistry lists every table this binary supports on this CPU,
// portable first. Architecture init() functions append to it.
var kernelRegistry = []kernelTable{portableTable}

func registerKernels(t kernelTable) { kernelRegistry = append(kernelRegistry, t) }

// KernelName reports which kernel table the package dispatched to:
// "portable", "avx2", "avx512popcnt", or "neon". Serving metrics
// surface it so a fleet operator can see which tier each node runs.
func KernelName() string { return kern.name }

// AvailableKernels lists the kernel tables usable on this CPU,
// portable first, best last.
func AvailableKernels() []string {
	names := make([]string, len(kernelRegistry))
	for i, t := range kernelRegistry {
		names[i] = t.name
	}
	return names
}

// UseKernels switches the active kernel table by name (a value from
// AvailableKernels). It exists for tests, benchmarks, and the
// BITVEC_KERNEL environment override — kernel dispatch is not
// synchronized, so it must not race with in-flight kernel calls.
func UseKernels(name string) error {
	for _, t := range kernelRegistry {
		if t.name == name {
			kern = t
			return nil
		}
	}
	avail := AvailableKernels()
	sort.Strings(avail)
	return fmt.Errorf("bitvec: unknown kernel table %q (available: %v)", name, avail)
}

// applyKernelEnv honors the BITVEC_KERNEL environment variable as a
// deploy-time override of the auto-selected table (e.g.
// BITVEC_KERNEL=portable to rule the SIMD path out while debugging).
// An unknown name is ignored: a misspelled override must degrade to
// the best kernel, never crash a server at boot.
func applyKernelEnv() {
	if name := os.Getenv("BITVEC_KERNEL"); name != "" {
		_ = UseKernels(name)
	}
}

// setKernelTable swaps in an arbitrary table and returns the previous
// one; tests use it to instrument kernels (e.g. counting words scored
// by Nearest's early-abandon path).
func setKernelTable(t kernelTable) kernelTable {
	prev := kern
	kern = t
	return prev
}

// --- portable reference kernels ---
//
// These are the behavioural ground truth for every SIMD back end, and
// the only implementations compiled under the `purego` build tag (or
// on architectures without a back end).

func popcntXorGo(a, b []uint64) int {
	t := 0
	for i, x := range a {
		t += bits.OnesCount64(x ^ b[i])
	}
	return t
}

func popcntXorChunksGo(a, b []uint64, bounds, out []int) {
	chunksVia(popcntXorGo, a, b, bounds, out)
}

// chunksVia is the popcntXorChunks entry of a table without a chunk
// kernel of its own: one hammingRange per chunk over the table's
// popcntXor.
func chunksVia(popcntXor func(a, b []uint64) int, a, b []uint64, bounds, out []int) {
	for j := range out {
		out[j] = hammingRange(popcntXor, a, b, bounds[j], bounds[j+1])
	}
}

func addScaledGo(tallies []int32, words []uint64, w int32) {
	for wi, word := range words {
		t := tallies[wi*wordBits : wi*wordBits+wordBits : wi*wordBits+wordBits]
		for b := range t {
			// +w when the bit is set, -w when clear, branch-free.
			t[b] += (int32(word>>uint(b)&1)<<1 - 1) * w
		}
	}
}
