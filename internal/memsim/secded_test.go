package memsim

import (
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestSECDEDCleanRoundTrip(t *testing.T) {
	var c SECDED
	for _, word := range []uint64{0, 1, 0xFFFFFFFFFFFFFFFF, 0xDEADBEEFCAFEBABE} {
		check := c.Encode(word)
		data, chk, res := c.Decode(word, check)
		if res != DecodeClean || data != word || chk != check {
			t.Fatalf("clean word %x decoded as %v", word, res)
		}
	}
}

func TestSECDEDCorrectsEverySingleDataBit(t *testing.T) {
	var c SECDED
	word := uint64(0x0123456789ABCDEF)
	check := c.Encode(word)
	for b := 0; b < 64; b++ {
		corrupted := word ^ (1 << uint(b))
		data, _, res := c.Decode(corrupted, check)
		if res != DecodeCorrected {
			t.Fatalf("bit %d: result %v, want corrected", b, res)
		}
		if data != word {
			t.Fatalf("bit %d: repaired to %x, want %x", b, data, word)
		}
	}
}

func TestSECDEDCorrectsCheckBitErrors(t *testing.T) {
	var c SECDED
	word := uint64(0xA5A5A5A5A5A5A5A5)
	check := c.Encode(word)
	for b := 0; b < 8; b++ {
		data, chk, res := c.Decode(word, check^(1<<uint(b)))
		if res != DecodeCorrected {
			t.Fatalf("check bit %d: result %v, want corrected", b, res)
		}
		if data != word || chk != check {
			t.Fatalf("check bit %d: repair wrong", b)
		}
	}
}

func TestSECDEDDetectsDoubleErrors(t *testing.T) {
	var c SECDED
	word := uint64(0x0F0F0F0F0F0F0F0F)
	check := c.Encode(word)
	rng := stats.NewRNG(5)
	for trial := 0; trial < 200; trial++ {
		b1 := rng.IntN(64)
		b2 := rng.IntN(64)
		if b1 == b2 {
			continue
		}
		corrupted := word ^ (1 << uint(b1)) ^ (1 << uint(b2))
		_, _, res := c.Decode(corrupted, check)
		if res != DecodeUncorrectable {
			t.Fatalf("double error (%d,%d) classified %v", b1, b2, res)
		}
	}
}

func TestSECDEDQuickSingleErrorProperty(t *testing.T) {
	var c SECDED
	f := func(word uint64, bit uint8) bool {
		b := int(bit) % 64
		check := c.Encode(word)
		data, _, res := c.Decode(word^(1<<uint(b)), check)
		return res == DecodeCorrected && data == word
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSECDEDCodewordBits(t *testing.T) {
	var c SECDED
	if c.CodewordBits() != 72 {
		t.Fatalf("CodewordBits = %d", c.CodewordBits())
	}
	if got := DecodeClean.String(); got != "clean" {
		t.Fatalf("String = %q", got)
	}
	if got := DecodeResult(99).String(); got == "" {
		t.Fatal("unknown result should still render")
	}
}

func TestSECDEDMatchesCostModelStorage(t *testing.T) {
	// The analytic ECC cost model's storage overhead must agree with
	// the functional codec's layout.
	e := DefaultECC()
	var c SECDED
	overhead := float64(c.CodewordBits()-64) / 64.0
	if overhead != e.StorageOverhead {
		t.Fatalf("codec overhead %v != cost model %v", overhead, e.StorageOverhead)
	}
}

// iidFlips encodes n random words, flips each of the 72 stored bits
// (data and check byte) independently with probability ber, and
// decodes them. It counts the words an unprotected memory would read
// wrong (a data bit flipped), the words the codec failed to restore
// (flagged uncorrectable or decoded to the wrong data), and the words
// that took two or more flips.
func iidFlips(n int, ber float64, seed uint64) (raw, lost, multi int) {
	var c SECDED
	rng := stats.NewRNG(seed)
	for i := 0; i < n; i++ {
		word := rng.Uint64()
		data, check := word, c.Encode(word)
		flips := 0
		for b := 0; b < 72; b++ {
			if rng.Float64() >= ber {
				continue
			}
			flips++
			if b < 64 {
				data ^= 1 << uint(b)
			} else {
				check ^= 1 << uint(b-64)
			}
		}
		if data != word {
			raw++
		}
		if got, _, res := c.Decode(data, check); got != word || res == DecodeUncorrectable {
			lost++
		}
		if flips >= 2 {
			multi++
		}
	}
	return raw, lost, multi
}

// TestSECDEDCorrectsSparseIIDFlips: at a mild bit error rate most
// corrupted words hold one error, which SECDED repairs — it leaves at
// most a quarter of the words an unprotected memory would read wrong,
// and never loses a word that took fewer than two flips.
func TestSECDEDCorrectsSparseIIDFlips(t *testing.T) {
	const words = 3000
	raw, lost, multi := iidFlips(words, 0.002, 5)
	if raw == 0 {
		t.Fatal("expected some raw corruption at BER 0.002")
	}
	if lost*4 > raw || lost > multi {
		t.Fatalf("codec lost %d of %d words (raw corrupt %d, multi-flip %d)", lost, words, raw, multi)
	}
}

// TestSECDEDOverwhelmedAtHighBER: at 5% i.i.d. flips most words take
// two or more errors, beyond single-error correction; the lost
// fraction is of the order ECCModel.UncorrectableRate prices.
func TestSECDEDOverwhelmedAtHighBER(t *testing.T) {
	const words = 3000
	_, lost, multi := iidFlips(words, 0.05, 6)
	if lost > multi {
		t.Fatalf("codec lost %d words but only %d took two or more flips", lost, multi)
	}
	want := DefaultECC().UncorrectableRate(0.05)
	if got := float64(lost) / words; got < want/4 {
		t.Fatalf("lost fraction %v far below model %v", got, want)
	}
}
