//go:build amd64 && !purego

#include "textflag.h"

// SIMD kernels for amd64. Two popcount-Hamming tiers are provided —
// an AVX2 Harley-Seal VPSHUFB kernel and an AVX-512 VPOPCNTQ kernel
// (256-bit lanes via AVX512VL) — plus an AVX2 kernel for the signed
// tally accumulation. These streaming kernels are bound by loads and
// stores, so they stay on 256-bit lanes; the Hamming kernels process
// the words they can cover at their vector width (multiples of 4) and
// leave the remainder to the Go wrapper. All
// loads/stores are unaligned (VMOVDQU), so callers may pass arbitrary
// word subslices. The AVX-512 chunk kernel runs many short ranges per
// call, so it takes 512-bit lanes and masked tail loads instead, and
// returns nothing to Go.
//
// The bind-bundle-majority sweep behind every bundle has two tiers of
// its own: an AVX2 kernel and a 512-bit VPTERNLOGQ kernel. It is bound
// by logic ops on L1-resident data, so the 512-bit tier's wider lanes,
// two-op full adder and 32 registers pay. Its layout (whole 8-word
// stripes, whole 16-row blocks) leaves no tail.
//
// Go assembly operand order is reversed from Intel: the destination
// comes last, and VPSHUFB reads as VPSHUFB indices, table, dst.

// popLUT is the nibble->popcount shuffle table, duplicated across both
// 128-bit lanes for VPSHUFB.
DATA popLUT<>+0(SB)/8, $0x0302020102010100
DATA popLUT<>+8(SB)/8, $0x0403030203020201
DATA popLUT<>+16(SB)/8, $0x0302020102010100
DATA popLUT<>+24(SB)/8, $0x0403030203020201
GLOBL popLUT<>(SB), RODATA|NOPTR, $32

DATA nibMask<>+0(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA nibMask<>+8(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA nibMask<>+16(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA nibMask<>+24(SB)/8, $0x0f0f0f0f0f0f0f0f
GLOBL nibMask<>(SB), RODATA|NOPTR, $32

// bitSel selects bit j of a broadcast byte in byte lane j (lanes 8-15
// repeat and are ignored by VPMOVSXBD).
DATA bitSel<>+0(SB)/8, $0x8040201008040201
DATA bitSel<>+8(SB)/8, $0x8040201008040201
GLOBL bitSel<>(SB), RODATA|NOPTR, $16

// CSA folds (L, X, Y) through a full adder: L gets the sum bits, H the
// carry bits. X is clobbered as scratch; T is a scratch register.
#define CSA(X, Y, L, H, T) \
	VPXOR X, L, T  \
	VPAND X, L, H  \
	VPAND Y, T, X  \
	VPOR  X, H, H  \
	VPXOR Y, T, L

// LOADX loads 32 bytes of a XOR b at byte offset DX+off into R.
#define LOADX(off, R) \
	VMOVDQU off(SI)(DX*1), R \
	VPXOR   off(DI)(DX*1), R, R

// PCY replaces YV with its per-qword byte popcount sums: nibble LUT
// shuffle (table Y5, mask Y6), byte add, then VPSADBW against zero Y7.
#define PCY(YV, T1) \
	VPAND   Y6, YV, T1  \
	VPSRLW  $4, YV, YV  \
	VPAND   Y6, YV, YV  \
	VPSHUFB T1, Y5, T1  \
	VPSHUFB YV, Y5, YV  \
	VPADDB  YV, T1, YV  \
	VPSADBW Y7, YV, YV

// SUMQ horizontally adds the four qwords of YV into GP.
#define SUMQ(YV, XV, XT, GP) \
	VEXTRACTI128 $1, YV, XT \
	VPADDQ       XT, XV, XV \
	VPSRLDQ      $8, XV, XT \
	VPADDQ       XT, XV, XV \
	VMOVQ        XV, GP

// func popcntXorHS(a, b *uint64, n int) int
//
// AVX2 Harley-Seal: 16 XOR'd 256-bit vectors per iteration fold
// through a carry-save adder tree (ones/twos/fours/eights in Y0-Y3),
// so only one VPSHUFB popcount per 64 words reaches the accumulator;
// the deferred CSA layers are popcounted once at the end with weights
// 1/2/4/8. Processes n &^ 3 words; the caller handles the remainder.
TEXT ·popcntXorHS(SB), NOSPLIT, $0-32
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ n+16(FP), CX
	XORQ DX, DX
	XORQ R8, R8
	VMOVDQU popLUT<>(SB), Y5
	VMOVDQU nibMask<>(SB), Y6
	VPXOR Y7, Y7, Y7
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y4, Y4, Y4

hs64:
	CMPQ CX, $64
	JLT  hsReduce

	LOADX(0, Y14)
	LOADX(32, Y15)
	CSA(Y14, Y15, Y0, Y8, Y10)
	LOADX(64, Y14)
	LOADX(96, Y15)
	CSA(Y14, Y15, Y0, Y9, Y10)
	CSA(Y8, Y9, Y1, Y10, Y11)
	LOADX(128, Y14)
	LOADX(160, Y15)
	CSA(Y14, Y15, Y0, Y8, Y11)
	LOADX(192, Y14)
	LOADX(224, Y15)
	CSA(Y14, Y15, Y0, Y9, Y11)
	CSA(Y8, Y9, Y1, Y11, Y12)
	CSA(Y10, Y11, Y2, Y12, Y13)
	LOADX(256, Y14)
	LOADX(288, Y15)
	CSA(Y14, Y15, Y0, Y8, Y10)
	LOADX(320, Y14)
	LOADX(352, Y15)
	CSA(Y14, Y15, Y0, Y9, Y10)
	CSA(Y8, Y9, Y1, Y10, Y11)
	LOADX(384, Y14)
	LOADX(416, Y15)
	CSA(Y14, Y15, Y0, Y8, Y11)
	LOADX(448, Y14)
	LOADX(480, Y15)
	CSA(Y14, Y15, Y0, Y9, Y11)
	CSA(Y8, Y9, Y1, Y11, Y14)
	CSA(Y10, Y11, Y2, Y13, Y14)
	CSA(Y12, Y13, Y3, Y10, Y11)

	PCY(Y10, Y11)
	VPADDQ Y10, Y4, Y4

	ADDQ $512, DX
	SUBQ $64, CX
	JMP  hs64

hsReduce:
	// total = 16*sixteens + 8*eights + 4*fours + 2*twos + ones
	SUMQ(Y4, X4, X8, AX)
	SHLQ $4, AX
	ADDQ AX, R8
	PCY(Y3, Y10)
	SUMQ(Y3, X3, X10, AX)
	SHLQ $3, AX
	ADDQ AX, R8
	PCY(Y2, Y10)
	SUMQ(Y2, X2, X10, AX)
	SHLQ $2, AX
	ADDQ AX, R8
	PCY(Y1, Y10)
	SUMQ(Y1, X1, X10, AX)
	SHLQ $1, AX
	ADDQ AX, R8
	PCY(Y0, Y10)
	SUMQ(Y0, X0, X10, AX)
	ADDQ AX, R8

	VPXOR Y9, Y9, Y9

hs4:
	CMPQ CX, $4
	JLT  hsDone
	LOADX(0, Y10)
	PCY(Y10, Y11)
	VPADDQ Y10, Y9, Y9
	ADDQ $32, DX
	SUBQ $4, CX
	JMP  hs4

hsDone:
	SUMQ(Y9, X9, X10, AX)
	ADDQ AX, R8
	MOVQ R8, ret+24(FP)
	VZEROUPPER
	RET

// func popcntXorVP(a, b *uint64, n int) int
//
// AVX-512 VPOPCNTDQ+VL tier: per-qword hardware popcount on 256-bit
// lanes, two accumulator chains. Processes n &^ 3 words.
TEXT ·popcntXorVP(SB), NOSPLIT, $0-32
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ n+16(FP), CX
	XORQ DX, DX
	VPXOR Y0, Y0, Y0
	VPXOR Y4, Y4, Y4

vp16:
	CMPQ CX, $16
	JLT  vp4
	VMOVDQU (SI)(DX*1), Y1
	VPXOR   (DI)(DX*1), Y1, Y1
	VPOPCNTQ Y1, Y1
	VPADDQ  Y1, Y0, Y0
	VMOVDQU 32(SI)(DX*1), Y2
	VPXOR   32(DI)(DX*1), Y2, Y2
	VPOPCNTQ Y2, Y2
	VPADDQ  Y2, Y4, Y4
	VMOVDQU 64(SI)(DX*1), Y3
	VPXOR   64(DI)(DX*1), Y3, Y3
	VPOPCNTQ Y3, Y3
	VPADDQ  Y3, Y0, Y0
	VMOVDQU 96(SI)(DX*1), Y5
	VPXOR   96(DI)(DX*1), Y5, Y5
	VPOPCNTQ Y5, Y5
	VPADDQ  Y5, Y4, Y4
	ADDQ $128, DX
	SUBQ $16, CX
	JMP  vp16

vp4:
	CMPQ CX, $4
	JLT  vpDone
	VMOVDQU (SI)(DX*1), Y1
	VPXOR   (DI)(DX*1), Y1, Y1
	VPOPCNTQ Y1, Y1
	VPADDQ  Y1, Y0, Y0
	ADDQ $32, DX
	SUBQ $4, CX
	JMP  vp4

vpDone:
	VPADDQ Y4, Y0, Y0
	SUMQ(Y0, X0, X1, AX)
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET

// func popcntXorChunksVP(a, b *uint64, bounds, out *int, m int)
//
// AVX-512 chunk table row: out[j] = popcount(a XOR b) over the bits
// [bounds[j], bounds[j+1]). Every word the chunk touches is counted
// with 512-bit VPOPCNTQ, eight words per load, the last 1-7 words in
// one zeroing masked load (K1 = (1<<r)-1; masked-off lanes never
// fault), so no tail goes back to Go. The sum stays in Z0 until the
// chunk ends and folds to one qword. The bits of the first word below
// the chunk and those of the last word at or above its end are
// counted scalar and subtracted.
TEXT ·popcntXorChunksVP(SB), NOSPLIT, $0-40
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ bounds+16(FP), R8
	MOVQ out+24(FP), R9
	MOVQ m+32(FP), R10
	MOVQ (R8), R11             // lo

chChunk:
	TESTQ R10, R10
	JZ    chDone
	MOVQ  8(R8), R14           // hi
	XORQ  DX, DX
	CMPQ  R14, R11
	JLE   chStore              // empty chunk
	MOVQ  R11, AX
	SHRQ  $6, AX               // first word
	LEAQ  -1(R14), BX
	SHRQ  $6, BX               // last word
	SUBQ  AX, BX
	INCQ  BX                   // words touched
	SHLQ  $3, AX
	LEAQ  (SI)(AX*1), R12
	LEAQ  (DI)(AX*1), R13
	MOVQ  R11, CX
	ANDQ  $63, CX
	JZ    chLoAligned
	MOVQ  (R12), R15
	XORQ  (R13), R15
	MOVQ  $1, AX
	SHLQ  CX, AX
	DECQ  AX                   // bits below lo
	ANDQ  AX, R15
	POPCNTQ R15, R15
	SUBQ  R15, DX

chLoAligned:
	MOVQ R14, CX
	ANDQ $63, CX
	JZ   chHiAligned
	MOVQ -8(R12)(BX*8), R15
	XORQ -8(R13)(BX*8), R15
	MOVQ $-1, AX
	SHLQ CX, AX                // bits at or above hi
	ANDQ AX, R15
	POPCNTQ R15, R15
	SUBQ R15, DX

chHiAligned:
	VPXORQ Z0, Z0, Z0

chLoop8:
	CMPQ     BX, $8
	JLT      chTail
	VMOVDQU64 (R12), Z1
	VPXORQ   (R13), Z1, Z1
	VPOPCNTQ Z1, Z1
	VPADDQ   Z1, Z0, Z0
	ADDQ     $64, R12
	ADDQ     $64, R13
	SUBQ     $8, BX
	JMP      chLoop8

chTail:
	TESTQ BX, BX
	JZ    chFold
	MOVQ  BX, CX
	MOVQ  $1, AX
	SHLQ  CX, AX
	DECQ  AX
	KMOVW AX, K1
	VMOVDQU64.Z (R12), K1, Z1
	VMOVDQU64.Z (R13), K1, Z2
	VPXORQ   Z2, Z1, Z1
	VPOPCNTQ Z1, Z1
	VPADDQ   Z1, Z0, Z0

chFold:
	VEXTRACTI64X4 $1, Z0, Y1
	VPADDQ        Y1, Y0, Y0
	SUMQ(Y0, X0, X1, AX)
	ADDQ AX, DX

chStore:
	MOVQ DX, (R9)
	MOVQ R14, R11              // this chunk's end is the next one's start
	ADDQ $8, R8
	ADDQ $8, R9
	DECQ R10
	JMP  chChunk

chDone:
	VZEROUPPER
	RET

// TALLY expands bit j of the broadcast source byte into eight int32
// lanes of +w / -w and adds them into tallies: mask = sign-extended
// (byte & bitSel == bitSel), delta = (mask & 2w) - w. Wrap-around
// two's-complement arithmetic keeps this exact for any w.
#define TALLY(j, off) \
	VPBROADCASTB j(SI), X0   \
	VPAND        X5, X0, X0  \
	VPCMPEQB     X5, X0, X0  \
	VPMOVSXBD    X0, Y0      \
	VPAND        Y6, Y0, Y0  \
	VPSUBD       Y7, Y0, Y0  \
	VPADDD       off(DI), Y0, Y0 \
	VMOVDQU      Y0, off(DI)

// func addScaledAsm(tallies *int32, words *uint64, n int, w int32)
//
// Adds +w/-w per bit of n whole words into 64·n int32 tallies.
TEXT ·addScaledAsm(SB), NOSPLIT, $0-28
	MOVQ tallies+0(FP), DI
	MOVQ words+8(FP), SI
	MOVQ n+16(FP), CX
	TESTQ CX, CX
	JZ   tallyDone
	VMOVDQU bitSel<>(SB), X5
	MOVL w+24(FP), AX
	MOVD AX, X7
	VPBROADCASTD X7, Y7
	VPADDD Y7, Y7, Y6

tallyLoop:
	TALLY(0, 0)
	TALLY(1, 32)
	TALLY(2, 64)
	TALLY(3, 96)
	TALLY(4, 128)
	TALLY(5, 160)
	TALLY(6, 192)
	TALLY(7, 224)
	ADDQ $8, SI
	ADDQ $256, DI
	DECQ CX
	JNZ  tallyLoop

tallyDone:
	VZEROUPPER
	RET

// The fused bind-bundle-majority kernels (bindPass in bind.go) sweep
// every stripe s, then every sample i, then the features k of the
// pass, binding items[s][k] XOR levels[s][offs[i][k]] on the fly and
// counting the binds per bit in carry-save planes that stay in
// registers for the whole sweep; one sweep ends in the threshold
// compare (or a plane dump) and a single store. The frame is shared:
// out+0, planes+8, items+16, levels+24, offs+32, masks+40,
// stripes+48, samples+56, features+64, stride+72, levelRows+80,
// top+88, where top is the number of count planes the pass can reach.
// GP registers: R8 stripe, R9 item stripe base, R10 level stripe
// base, R11 sample, R12 offset row, R14 top, R15 masks; SI, DI and CX
// walk one sweep.

// BINDZ loads bind j of a block into Z: the item row at byte o64 of
// SI, XOR the level row whose word offset is the int32 at byte o4 of DI.
#define BINDZ(o4, o64, Z) \
	MOVL      o4(DI), AX    \
	VMOVDQU64 o64(SI), Z    \
	VPXORQ    (R10)(AX*8), Z, Z

// CSAZ is a full adder in two ternary-logic ops: L = L^A^B, and the
// carry maj(L, A, B) lands in A, computed from A, B and the new L
// (A==B ? A : ^L, truth table 0xD4).
#define CSAZ(A, B, L) \
	VPTERNLOGQ $0x96, B, A, L \
	VPTERNLOGQ $0xD4, L, B, A

// CMPZ folds count plane P into the running compare (gt Z1, eq Z2)
// against the threshold bit broadcast from byte off of the masks:
// gt |= eq & P &^ tb (0x40), eq &^= P ^ tb (0x90).
#define CMPZ(off, P) \
	VPBROADCASTQ off(R15), Z3   \
	VMOVDQA64    Z2, Z4         \
	VPTERNLOGQ   $0x40, Z3, P, Z4 \
	VPORQ        Z4, Z1, Z1     \
	VPTERNLOGQ   $0x90, Z3, P, Z2

// func bindMajorityZ(out, planes, items, levels *uint64, offs *int32, masks *uint64, stripes, samples, features, stride, levelRows, top int)
//
// AVX-512 tier: one 8-word stripe per ZMM register, count planes 0-10
// in Z16-Z26, 16 binds per carry-save block in Z0-Z15, and the
// weight-16 carry rippled only as high as top.
TEXT ·bindMajorityZ(SB), NOSPLIT, $0-96
	MOVQ items+16(FP), R9
	MOVQ levels+24(FP), R10
	MOVQ masks+40(FP), R15
	MOVQ top+88(FP), R14
	XORQ R8, R8

bzStripe:
	CMPQ R8, stripes+48(FP)
	JGE  bzDone
	MOVQ offs+32(FP), R12
	XORQ R11, R11

bzSample:
	CMPQ   R11, samples+56(FP)
	JGE    bzNextStripe
	VPXORQ Z16, Z16, Z16
	VPXORQ Z17, Z17, Z17
	VPXORQ Z18, Z18, Z18
	VPXORQ Z19, Z19, Z19
	VPXORQ Z20, Z20, Z20
	VPXORQ Z21, Z21, Z21
	VPXORQ Z22, Z22, Z22
	VPXORQ Z23, Z23, Z23
	VPXORQ Z24, Z24, Z24
	VPXORQ Z25, Z25, Z25
	VPXORQ Z26, Z26, Z26
	MOVQ   R9, SI
	MOVQ   R12, DI
	MOVQ   features+64(FP), CX

bzBlock:
	BINDZ(0, 0, Z0)
	BINDZ(4, 64, Z1)
	CSAZ(Z0, Z1, Z16)
	BINDZ(8, 128, Z2)
	BINDZ(12, 192, Z3)
	CSAZ(Z2, Z3, Z16)
	CSAZ(Z0, Z2, Z17)
	BINDZ(16, 256, Z4)
	BINDZ(20, 320, Z5)
	CSAZ(Z4, Z5, Z16)
	BINDZ(24, 384, Z6)
	BINDZ(28, 448, Z7)
	CSAZ(Z6, Z7, Z16)
	CSAZ(Z4, Z6, Z17)
	CSAZ(Z0, Z4, Z18)
	BINDZ(32, 512, Z8)
	BINDZ(36, 576, Z9)
	CSAZ(Z8, Z9, Z16)
	BINDZ(40, 640, Z10)
	BINDZ(44, 704, Z11)
	CSAZ(Z10, Z11, Z16)
	CSAZ(Z8, Z10, Z17)
	BINDZ(48, 768, Z12)
	BINDZ(52, 832, Z13)
	CSAZ(Z12, Z13, Z16)
	BINDZ(56, 896, Z14)
	BINDZ(60, 960, Z15)
	CSAZ(Z14, Z15, Z16)
	CSAZ(Z12, Z14, Z17)
	CSAZ(Z8, Z12, Z18)
	CSAZ(Z0, Z8, Z19)

	// Ripple the weight-16 carry (Z0) into planes 4..top-1; a pass of
	// at least 16 features reaches plane 4.
	VPANDQ Z0, Z20, Z1
	VPXORQ Z0, Z20, Z20
	CMPQ   R14, $5
	JEQ    bzRippled
	VPANDQ Z1, Z21, Z0
	VPXORQ Z1, Z21, Z21
	CMPQ   R14, $6
	JEQ    bzRippled
	VPANDQ Z0, Z22, Z1
	VPXORQ Z0, Z22, Z22
	CMPQ   R14, $7
	JEQ    bzRippled
	VPANDQ Z1, Z23, Z0
	VPXORQ Z1, Z23, Z23
	CMPQ   R14, $8
	JEQ    bzRippled
	VPANDQ Z0, Z24, Z1
	VPXORQ Z0, Z24, Z24
	CMPQ   R14, $9
	JEQ    bzRippled
	VPANDQ Z1, Z25, Z0
	VPXORQ Z1, Z25, Z25
	CMPQ   R14, $10
	JEQ    bzRippled
	VPXORQ Z0, Z26, Z26

bzRippled:
	ADDQ $1024, SI
	ADDQ $64, DI
	SUBQ $16, CX
	JNZ  bzBlock

	MOVQ  planes+8(FP), DX
	TESTQ DX, DX
	JNZ   bzPlanes

	// Planes from top up are zero, as are the threshold's bits there,
	// so the compare starts at plane top-1.
	VPXORQ     Z1, Z1, Z1
	VPTERNLOGQ $0xFF, Z2, Z2, Z2
	CMPQ R14, $11
	JLT  bzSkip10
	CMPZ(80, Z26)

bzSkip10:
	CMPQ R14, $10
	JLT  bzSkip9
	CMPZ(72, Z25)

bzSkip9:
	CMPQ R14, $9
	JLT  bzSkip8
	CMPZ(64, Z24)

bzSkip8:
	CMPQ R14, $8
	JLT  bzSkip7
	CMPZ(56, Z23)

bzSkip7:
	CMPQ R14, $7
	JLT  bzSkip6
	CMPZ(48, Z22)

bzSkip6:
	CMPQ R14, $6
	JLT  bzSkip5
	CMPZ(40, Z21)

bzSkip5:
	CMPZ(32, Z20)
	CMPZ(24, Z19)
	CMPZ(16, Z18)
	CMPZ(8, Z17)
	CMPZ(0, Z16)
	VPBROADCASTQ 88(R15), Z3
	VPTERNLOGQ   $0xF8, Z3, Z2, Z1 // gt | eq&tie
	MOVQ         R11, AX
	IMULQ        stripes+48(FP), AX
	ADDQ         R8, AX
	SHLQ         $6, AX
	ADDQ         out+0(FP), AX
	VMOVDQU64    Z1, (AX)
	JMP          bzNextSample

bzPlanes:
	// Plane b of sample i, stripe s at ((i·11 + b)·stripes + s)·64.
	MOVQ      R11, AX
	IMUL3Q    $11, AX, AX
	IMULQ     stripes+48(FP), AX
	ADDQ      R8, AX
	SHLQ      $6, AX
	ADDQ      AX, DX
	MOVQ      stripes+48(FP), BX
	SHLQ      $6, BX
	VMOVDQU64 Z16, (DX)
	ADDQ      BX, DX
	VMOVDQU64 Z17, (DX)
	ADDQ      BX, DX
	VMOVDQU64 Z18, (DX)
	ADDQ      BX, DX
	VMOVDQU64 Z19, (DX)
	ADDQ      BX, DX
	VMOVDQU64 Z20, (DX)
	ADDQ      BX, DX
	VMOVDQU64 Z21, (DX)
	ADDQ      BX, DX
	VMOVDQU64 Z22, (DX)
	ADDQ      BX, DX
	VMOVDQU64 Z23, (DX)
	ADDQ      BX, DX
	VMOVDQU64 Z24, (DX)
	ADDQ      BX, DX
	VMOVDQU64 Z25, (DX)
	ADDQ      BX, DX
	VMOVDQU64 Z26, (DX)

bzNextSample:
	INCQ R11
	MOVQ stride+72(FP), AX
	LEAQ (R12)(AX*4), R12
	JMP  bzSample

bzNextStripe:
	INCQ R8
	MOVQ stride+72(FP), AX
	SHLQ $6, AX
	ADDQ AX, R9
	MOVQ levelRows+80(FP), AX
	SHLQ $6, AX
	ADDQ AX, R10
	JMP  bzStripe

bzDone:
	VZEROUPPER
	RET

// BINDY loads bind j of a block into Y: the item half-row at byte o64
// of SI, XOR the level half-row whose word offset is the int32 at byte
// o4 of DI, relative to BX.
#define BINDY(o4, o64, Y) \
	MOVL    o4(DI), AX   \
	VMOVDQU o64(SI), Y   \
	VPXOR   (BX)(AX*8), Y, Y

// CSAY is a full adder without a scratch register: L = L^X^Y, and the
// carry maj(L, X, Y) = ((X^L) | (X^Y)) ^ L_new lands in X; Y is
// clobbered.
#define CSAY(X, Y, L) \
	VPXOR X, Y, Y \
	VPXOR L, X, X \
	VPXOR Y, L, L \
	VPOR  Y, X, X \
	VPXOR L, X, X

// CMPY folds count plane P into the running compare (gt Y11, eq Y12)
// against the threshold bit broadcast from byte off of the masks.
#define CMPY(off, P) \
	VPBROADCASTQ off(R15), Y13 \
	VPANDN       P, Y13, Y14   \
	VPAND        Y12, Y14, Y14 \
	VPOR         Y14, Y11, Y11 \
	VPXOR        P, Y13, Y14   \
	VPANDN       Y12, Y14, Y12

// func bindMajorityY(out, planes, items, levels *uint64, offs *int32, masks *uint64, stripes, samples, features, stride, levelRows, top int)
//
// AVX2 tier: each 8-word stripe sweeps as two 4-word halves (R13 = 0,
// 32 bytes), count planes 0-10 in Y0-Y10, and 16 binds per carry-save
// block in the five registers left, Y11-Y15, which hold at most two
// binds and three pending carries at once; the weight-16 carry
// ripples only as high as top.
TEXT ·bindMajorityY(SB), NOSPLIT, $0-96
	MOVQ items+16(FP), R9
	MOVQ levels+24(FP), R10
	MOVQ masks+40(FP), R15
	MOVQ top+88(FP), R14
	XORQ R8, R8

byStripe:
	CMPQ R8, stripes+48(FP)
	JGE  byDone
	MOVQ offs+32(FP), R12
	XORQ R11, R11

bySample:
	CMPQ R11, samples+56(FP)
	JGE  byNextStripe
	XORQ R13, R13

byHalf:
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7
	VPXOR Y8, Y8, Y8
	VPXOR Y9, Y9, Y9
	VPXOR Y10, Y10, Y10
	LEAQ  (R9)(R13*1), SI
	LEAQ  (R10)(R13*1), BX
	MOVQ  R12, DI
	MOVQ  features+64(FP), CX

byBlock:
	BINDY(0, 0, Y11)
	BINDY(4, 64, Y12)
	CSAY(Y11, Y12, Y0)
	BINDY(8, 128, Y12)
	BINDY(12, 192, Y13)
	CSAY(Y12, Y13, Y0)
	CSAY(Y11, Y12, Y1)
	BINDY(16, 256, Y12)
	BINDY(20, 320, Y13)
	CSAY(Y12, Y13, Y0)
	BINDY(24, 384, Y13)
	BINDY(28, 448, Y14)
	CSAY(Y13, Y14, Y0)
	CSAY(Y12, Y13, Y1)
	CSAY(Y11, Y12, Y2)
	BINDY(32, 512, Y12)
	BINDY(36, 576, Y13)
	CSAY(Y12, Y13, Y0)
	BINDY(40, 640, Y13)
	BINDY(44, 704, Y14)
	CSAY(Y13, Y14, Y0)
	CSAY(Y12, Y13, Y1)
	BINDY(48, 768, Y13)
	BINDY(52, 832, Y14)
	CSAY(Y13, Y14, Y0)
	BINDY(56, 896, Y14)
	BINDY(60, 960, Y15)
	CSAY(Y14, Y15, Y0)
	CSAY(Y13, Y14, Y1)
	CSAY(Y12, Y13, Y2)
	CSAY(Y11, Y12, Y3)

	// Ripple the weight-16 carry (Y11) into planes 4..top-1; a pass of
	// at least 16 features reaches plane 4.
	VPAND Y11, Y4, Y12
	VPXOR Y11, Y4, Y4
	CMPQ  R14, $5
	JEQ   byRippled
	VPAND Y12, Y5, Y11
	VPXOR Y12, Y5, Y5
	CMPQ  R14, $6
	JEQ   byRippled
	VPAND Y11, Y6, Y12
	VPXOR Y11, Y6, Y6
	CMPQ  R14, $7
	JEQ   byRippled
	VPAND Y12, Y7, Y11
	VPXOR Y12, Y7, Y7
	CMPQ  R14, $8
	JEQ   byRippled
	VPAND Y11, Y8, Y12
	VPXOR Y11, Y8, Y8
	CMPQ  R14, $9
	JEQ   byRippled
	VPAND Y12, Y9, Y11
	VPXOR Y12, Y9, Y9
	CMPQ  R14, $10
	JEQ   byRippled
	VPXOR Y11, Y10, Y10

byRippled:
	ADDQ $1024, SI
	ADDQ $64, DI
	SUBQ $16, CX
	JNZ  byBlock

	MOVQ  planes+8(FP), DX
	TESTQ DX, DX
	JNZ   byPlanes

	// Planes from top up are zero: start at plane top-1.
	VPXOR    Y11, Y11, Y11
	VPCMPEQQ Y12, Y12, Y12
	CMPQ R14, $11
	JLT  bySkip10
	CMPY(80, Y10)

bySkip10:
	CMPQ R14, $10
	JLT  bySkip9
	CMPY(72, Y9)

bySkip9:
	CMPQ R14, $9
	JLT  bySkip8
	CMPY(64, Y8)

bySkip8:
	CMPQ R14, $8
	JLT  bySkip7
	CMPY(56, Y7)

bySkip7:
	CMPQ R14, $7
	JLT  bySkip6
	CMPY(48, Y6)

bySkip6:
	CMPQ R14, $6
	JLT  bySkip5
	CMPY(40, Y5)

bySkip5:
	CMPY(32, Y4)
	CMPY(24, Y3)
	CMPY(16, Y2)
	CMPY(8, Y1)
	CMPY(0, Y0)
	VPBROADCASTQ 88(R15), Y13
	VPAND        Y13, Y12, Y12
	VPOR         Y12, Y11, Y11
	MOVQ         R11, AX
	IMULQ        stripes+48(FP), AX
	ADDQ         R8, AX
	SHLQ         $6, AX
	ADDQ         out+0(FP), AX
	VMOVDQU      Y11, (AX)(R13*1)
	JMP          byNextHalf

byPlanes:
	MOVQ    R11, AX
	IMUL3Q  $11, AX, AX
	IMULQ   stripes+48(FP), AX
	ADDQ    R8, AX
	SHLQ    $6, AX
	ADDQ    AX, DX
	ADDQ    R13, DX
	MOVQ    stripes+48(FP), BX
	SHLQ    $6, BX
	VMOVDQU Y0, (DX)
	ADDQ    BX, DX
	VMOVDQU Y1, (DX)
	ADDQ    BX, DX
	VMOVDQU Y2, (DX)
	ADDQ    BX, DX
	VMOVDQU Y3, (DX)
	ADDQ    BX, DX
	VMOVDQU Y4, (DX)
	ADDQ    BX, DX
	VMOVDQU Y5, (DX)
	ADDQ    BX, DX
	VMOVDQU Y6, (DX)
	ADDQ    BX, DX
	VMOVDQU Y7, (DX)
	ADDQ    BX, DX
	VMOVDQU Y8, (DX)
	ADDQ    BX, DX
	VMOVDQU Y9, (DX)
	ADDQ    BX, DX
	VMOVDQU Y10, (DX)

byNextHalf:
	ADDQ $32, R13
	CMPQ R13, $64
	JLT  byHalf
	INCQ R11
	MOVQ stride+72(FP), AX
	LEAQ (R12)(AX*4), R12
	JMP  bySample

byNextStripe:
	INCQ R8
	MOVQ stride+72(FP), AX
	SHLQ $6, AX
	ADDQ AX, R9
	MOVQ levelRows+80(FP), AX
	SHLQ $6, AX
	ADDQ AX, R10
	JMP  byStripe

byDone:
	VZEROUPPER
	RET

// func cpuidProbe(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidProbe(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
