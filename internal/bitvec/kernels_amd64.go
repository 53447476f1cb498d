//go:build amd64 && !purego

package bitvec

import "math/bits"

// Assembly kernels (kernels_amd64.s). The popcount-Hamming kernels
// process n &^ 3 words (the tally kernel processes all n whole words); the Go wrappers below peel the
// remainder through the portable reference so any length and any
// subslice alignment is bit-identical to the portable table. The
// chunk kernel needs no tail: each chunk's last zmm load is masked and
// its partial edge words are corrected in the kernel. The bindMajority
// kernels need no tail either: a BindMemory is whole stripes and whole
// carry-save blocks by construction.

//go:noescape
func popcntXorHS(a, b *uint64, n int) int

//go:noescape
func popcntXorVP(a, b *uint64, n int) int

//go:noescape
func popcntXorChunksVP(a, b *uint64, bounds, out *int, m int)

//go:noescape
func addScaledAsm(tallies *int32, words *uint64, n int, w int32)

//go:noescape
func bindMajorityY(out, planes, items, levels *uint64, offs *int32, masks *uint64, stripes, samples, features, stride, levelRows, top int)

//go:noescape
func bindMajorityZ(out, planes, items, levels *uint64, offs *int32, masks *uint64, stripes, samples, features, stride, levelRows, top int)

func cpuidProbe(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax, edx uint32)

func popcntXorAVX2(a, b []uint64) int {
	n := len(a) &^ 3
	t := 0
	if n > 0 {
		t = popcntXorHS(&a[0], &b[0], n)
	}
	for i := n; i < len(a); i++ {
		t += bits.OnesCount64(a[i] ^ b[i])
	}
	return t
}

func popcntXorAVX512(a, b []uint64) int {
	n := len(a) &^ 3
	t := 0
	if n > 0 {
		t = popcntXorVP(&a[0], &b[0], n)
	}
	for i := n; i < len(a); i++ {
		t += bits.OnesCount64(a[i] ^ b[i])
	}
	return t
}

func popcntXorChunksAVX2(a, b []uint64, bounds, out []int) {
	chunksVia(popcntXorAVX2, a, b, bounds, out)
}

func popcntXorChunksAVX512(a, b []uint64, bounds, out []int) {
	if len(out) == 0 {
		return
	}
	if len(a) == 0 { // every chunk of an empty row is empty
		clear(out)
		return
	}
	popcntXorChunksVP(&a[0], &b[0], &bounds[0], &out[0], len(out))
}

func addScaledAVX2(tallies []int32, words []uint64, w int32) {
	if len(words) == 0 {
		return
	}
	addScaledAsm(&tallies[0], &words[0], len(words), w)
}

func bindMajorityAVX2(p *bindPass) { bindMajorityAsm(p, bindMajorityY) }

func bindMajorityAVX512(p *bindPass) { bindMajorityAsm(p, bindMajorityZ) }

func bindMajorityAsm(p *bindPass, f func(out, planes, items, levels *uint64, offs *int32, masks *uint64, stripes, samples, features, stride, levelRows, top int)) {
	var out, planes *uint64
	if p.planes != nil {
		planes = &p.planes[0]
	} else {
		out = &p.out[0]
	}
	f(out, planes, &p.items[0], &p.levels[0], &p.offs[0], &p.masks[0],
		p.stripes, p.samples, p.features, p.stride, p.levelRows, bits.Len(uint(p.features)))
}

// CPUID feature bits (Intel SDM vol. 2, CPUID leaf 1 ECX and leaf 7
// EBX/ECX), plus the XCR0 state-component bits AVX and AVX-512 need
// the OS to have enabled.
const (
	cpuidOSXSAVE    = 1 << 27 // leaf 1 ECX
	cpuidAVX        = 1 << 28 // leaf 1 ECX
	cpuidAVX2       = 1 << 5  // leaf 7 EBX
	cpuidAVX512F    = 1 << 16 // leaf 7 EBX
	cpuidAVX512VL   = 1 << 31 // leaf 7 EBX
	cpuidVPOPCNTDQ  = 1 << 14 // leaf 7 ECX
	xcr0AVXState    = 0x6     // XMM + YMM
	xcr0AVX512State = 0xe0    // opmask + ZMM hi256 + hi16 ZMM
)

func cpuHasAVX2() bool {
	maxLeaf, _, _, _ := cpuidProbe(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, c1, _ := cpuidProbe(1, 0)
	if c1&cpuidOSXSAVE == 0 || c1&cpuidAVX == 0 {
		return false
	}
	if eax, _ := xgetbv0(); eax&xcr0AVXState != xcr0AVXState {
		return false
	}
	_, b7, _, _ := cpuidProbe(7, 0)
	return b7&cpuidAVX2 != 0
}

func cpuHasAVX512Popcnt() bool {
	// cpuHasAVX2 has already verified OSXSAVE and the basic AVX state.
	if eax, _ := xgetbv0(); eax&(xcr0AVXState|xcr0AVX512State) != xcr0AVXState|xcr0AVX512State {
		return false
	}
	_, b7, c7, _ := cpuidProbe(7, 0)
	if b7&cpuidAVX512F == 0 || b7&cpuidAVX512VL == 0 {
		return false
	}
	return c7&cpuidVPOPCNTDQ != 0
}

func init() {
	if !cpuHasAVX2() {
		applyKernelEnv()
		return
	}
	avx2 := kernelTable{
		name:            "avx2",
		popcntXor:       popcntXorAVX2,
		popcntXorChunks: popcntXorChunksAVX2,
		addScaled:       addScaledAVX2,
		bindMajority:    bindMajorityAVX2,
	}
	registerKernels(avx2)
	best := avx2
	if cpuHasAVX512Popcnt() {
		// The AVX2 table with three kernels swapped: popcount-Hamming
		// for hardware VPOPCNTQ; the chunk kernel for a 512-bit
		// VPOPCNTQ loop whose masked loads take each chunk's tail, so a
		// whole row of short chunks is one call with no Go tail; and
		// the bind-bundle-majority sweep for the 512-bit VPTERNLOGQ
		// kernel, whose 32 registers hold all eleven count planes and a
		// 16-bind carry-save block at once. The tally kernel stays on
		// 256-bit lanes: it is bound by memory, not by lane width.
		vp := avx2
		vp.name = "avx512popcnt"
		vp.popcntXor = popcntXorAVX512
		vp.popcntXorChunks = popcntXorChunksAVX512
		vp.bindMajority = bindMajorityAVX512
		registerKernels(vp)
		best = vp
	}
	kern = best
	applyKernelEnv()
}
