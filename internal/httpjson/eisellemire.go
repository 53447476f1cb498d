package httpjson

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
)

// The Eisel–Lemire conversion of a decimal mantissa and exponent to
// the nearest float64 (D. Lemire, "Number Parsing at a Gigabyte per
// Second", https://arxiv.org/abs/2101.11408; N. Tao's walk-through at
// https://nigeltao.github.io/blog/2020/eisel-lemire.html). It is the
// algorithm strconv.ParseFloat itself tries first, so where it answers
// its answer is ParseFloat's, bit for bit.

// The power table spans 10^pow10Min through 10^pow10Max: past either
// end every float64 literal with a 19-digit mantissa is 0 or infinite,
// which the algorithm leaves to strconv.ParseFloat.
const (
	pow10Min = -348
	pow10Max = 347
)

// pow10 holds, for q = pow10Min…pow10Max at row q − pow10Min, the
// 128-bit {hi, lo} = floor(10^q · 2^s), with s the one power of two
// that puts it in [2^127, 2^128). Truncating (never rounding up) is
// what the algorithm's error bound assumes. init builds it.
var pow10 [pow10Max - pow10Min + 1][2]uint64

func init() {
	var (
		pos  = big.NewInt(1) // 10^k
		one  = big.NewInt(1)
		ten  = big.NewInt(10)
		v    big.Int
		word [16]byte
	)
	set := func(q int) {
		v.FillBytes(word[:])
		pow10[q-pow10Min] = [2]uint64{binary.BigEndian.Uint64(word[:8]), binary.BigEndian.Uint64(word[8:])}
	}
	for k := 0; k <= -pow10Min; k++ {
		n := pos.BitLen() // 10^k lies in [2^(n-1), 2^n)
		if k <= pow10Max {
			if n <= 128 {
				v.Lsh(pos, uint(128-n))
			} else {
				v.Rsh(pos, uint(n-128))
			}
			set(k)
		}
		if k > 0 {
			// 10^-k = 2^-(127+n) · 2^(127+n)/10^k, and 10^k is not a
			// power of two, so the quotient lies in (2^127, 2^128).
			v.Lsh(one, uint(127+n))
			v.Quo(&v, pos)
			set(-k)
		}
		pos.Mul(pos, ten)
	}
}

// eiselLemire64 returns the float64 nearest man · 10^exp10, negated if
// neg, with ties to even. ok is false when it cannot decide: exp10
// outside the power table, a product too close to a halfway point to
// round from 128 bits, or a result that is subnormal or overflows.
func eiselLemire64(man uint64, exp10 int, neg bool) (f float64, ok bool) {
	if man == 0 {
		if neg {
			return math.Copysign(0, -1), true
		}
		return 0, true
	}
	if exp10 < pow10Min || exp10 > pow10Max {
		return 0, false
	}
	pow := &pow10[exp10-pow10Min]

	// Normalise man to 64 significant bits. 217706/2^16 is log2(10)
	// closely enough that the shift is floor(exp10 · log2 10) over the
	// whole table.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	const bias = 1023
	exp2 := uint64(217706*exp10>>16+64+bias) - uint64(clz)

	// The top 64 bits of man × pow suffice unless the low bits of the
	// high word are all ones, where a carry from the low word could
	// still change the rounding; then take the full 192-bit product.
	hi, lo := bits.Mul64(man, pow[0])
	if hi&0x1ff == 0x1ff && lo+man < man {
		yHi, yLo := bits.Mul64(man, pow[1])
		mHi, mLo := hi, lo+yHi
		if mLo < lo {
			mHi++
		}
		if mHi&0x1ff == 0x1ff && mLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		hi, lo = mHi, mLo
	}

	// Keep 54 bits: the 53 of the result and one to round with.
	msb := hi >> 63
	m := hi >> (msb + 9)
	exp2 -= 1 ^ msb

	// An exact halfway product cannot be told from one just above or
	// below it with the truncated power.
	if lo == 0 && hi&0x1ff == 0 && m&3 == 1 {
		return 0, false
	}

	// Round half to even down to 53 bits; rounding up may carry into a
	// 54th bit.
	m += m & 1
	m >>= 1
	if m>>53 > 0 {
		m >>= 1
		exp2++
	}
	// exp2 is unsigned: 0 or a wrapped negative is subnormal, 0x7ff or
	// more is infinite.
	if exp2-1 >= 0x7ff-1 {
		return 0, false
	}
	u := exp2<<52 | m&(1<<52-1)
	if neg {
		u |= 1 << 63
	}
	return math.Float64frombits(u), true
}
