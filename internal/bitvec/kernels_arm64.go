//go:build arm64 && !purego

package bitvec

import "math/bits"

// popcntXorNEON (kernels_arm64.s) scores n &^ 3 words via VEOR + VCNT
// byte popcounts accumulated in vector byte lanes; the wrapper peels
// the remainder scalar.
//
//go:noescape
func popcntXorNEON(a, b *uint64, n int) int

func popcntXorNEONWrap(a, b []uint64) int {
	n := len(a) &^ 3
	t := 0
	if n > 0 {
		t = popcntXorNEON(&a[0], &b[0], n)
	}
	for i := n; i < len(a); i++ {
		t += bits.OnesCount64(a[i] ^ b[i])
	}
	return t
}

func popcntXorChunksNEON(a, b []uint64, bounds, out []int) {
	chunksVia(popcntXorNEONWrap, a, b, bounds, out)
}

func init() {
	// NEON (AdvSIMD) is baseline on arm64 — no feature probe needed.
	// Only the popcount-Hamming kernel is vectorized; the chunk entry
	// runs it once per chunk interior. The tally kernel is load/store
	// bound, where the Go compiler's scalar loop already competes,
	// and the portable bind-bundle-majority sweep keeps a
	// word column's count planes in scalar registers; so those table
	// entries stay on the portable reference.
	neon := portableTable
	neon.name = "neon"
	neon.popcntXor = popcntXorNEONWrap
	neon.popcntXorChunks = popcntXorChunksNEON
	registerKernels(neon)
	kern = neon
	applyKernelEnv()
}
