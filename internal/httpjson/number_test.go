package httpjson

import (
	"bytes"
	"io"
	"math"
	"math/big"
	"math/rand/v2"
	"net/http"
	"regexp"
	"strconv"
	"testing"
)

// checkNumber requires parser.number on b, which starts with the JSON
// number lit, to agree with strconv.ParseFloat(lit, 64): the same
// accept or decline, the same bits, and all of lit consumed on accept,
// nothing on decline.
func checkNumber(t *testing.T, b []byte, lit string) {
	t.Helper()
	want, err := strconv.ParseFloat(lit, 64)
	p := parser{b: b}
	got, ok := p.number()
	switch {
	case ok != (err == nil):
		t.Fatalf("%q: accepted %v, ParseFloat(%q) error %v", b, ok, lit, err)
	case !ok && p.i != 0:
		t.Fatalf("%q: declined after consuming %d bytes", b, p.i)
	case ok && p.i != len(lit):
		t.Fatalf("%q: consumed %q, want %q", b, b[:p.i], lit)
	case ok && math.Float64bits(got) != math.Float64bits(want):
		t.Fatalf("%q: %v (%016x), ParseFloat %v (%016x)", lit, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestNumberMatchesParseFloat holds the one-pass conversion to
// strconv.ParseFloat on random float64 bit patterns in the three forms
// a JSON encoder may print them, and on the literals at the edges of
// the conversion: signed zero, subnormals, the normal/subnormal
// boundary, halfway cases, overflow and underflow, saturating
// exponents, and mantissas past 19 digits.
func TestNumberMatchesParseFloat(t *testing.T) {
	for _, lit := range []string{
		"0", "-0", "0.0", "-0.0e+0", "4.9e-324", "5e-324", "2.4703282292062327e-324",
		"2.2250738585072011e-308", "2.2250738585072014e-308", "9007199254740993",
		"9007199254740992", "1e23", "8.98846567431158e307", "1.7976931348623157e308",
		"1.7976931348623159e308", "1e400", "-1e400", "1e-400", "1e99999999999999999999",
		"1e-99999999999999999999", "1e18446744073709551621", "0e99999999999999999999",
		"0.000000000000000000000000000001",
		"123456789012345678901234567890", "1234567890123456789", "12345678901234567891",
		"10000000000000000000000000000", "0.1000000000000000000000000000",
		"1.00000000000000011102230246251565404236316680908203125",
		"1.00000000000000011102230246251565404236316680908203124",
		"1.00000000000000011102230246251565404236316680908203126",
	} {
		checkNumber(t, []byte(lit+"]"), lit)
	}
	n := 1 << 20
	if raceEnabled {
		n = 1 << 14
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for range n {
		x := math.Float64frombits(rng.Uint64())
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue
		}
		lits := []string{strconv.FormatFloat(x, 'g', -1, 64), strconv.FormatFloat(x, 'e', rng.IntN(25), 64)}
		if a := math.Abs(x); 1e-30 < a && a < 1e30 {
			lits = append(lits, strconv.FormatFloat(x, 'f', -1, 64))
		}
		for _, lit := range lits {
			checkNumber(t, []byte(lit+"]"), lit)
		}
	}
}

// TestPow10Table checks every row of the power table against its
// definition: hi:lo = floor(10^q · 2^s) with the top bit set.
func TestPow10Table(t *testing.T) {
	for q := pow10Min; q <= pow10Max; q++ {
		row := pow10[q-pow10Min]
		if row[0]>>63 != 1 {
			t.Fatalf("10^%d: top bit clear in %016x%016x", q, row[0], row[1])
		}
		m := new(big.Int).Lsh(new(big.Int).SetUint64(row[0]), 64)
		m.Or(m, new(big.Int).SetUint64(row[1]))
		// 10^q · 2^s = num/den; s is 127 − floor(log2 10^q).
		num, den := big.NewInt(1), big.NewInt(1)
		p := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(max(q, -q))), nil)
		var s int
		if q >= 0 {
			num.Set(p)
			s = 127 - (p.BitLen() - 1)
		} else {
			den.Set(p)
			s = 127 + p.BitLen() // 10^-q is no power of two
		}
		if s >= 0 {
			num.Lsh(num, uint(s))
		} else {
			den.Lsh(den, uint(-s))
		}
		lo := new(big.Int).Mul(m, den)
		hi := new(big.Int).Add(lo, den)
		if lo.Cmp(num) > 0 || num.Cmp(hi) >= 0 {
			t.Fatalf("10^%d: %016x%016x is not floor(10^%d · 2^%d)", q, row[0], row[1], q, s)
		}
	}
}

// jsonNumber matches the longest run that could start a JSON number;
// jsonNumberFull says whether that run is one.
var (
	jsonNumber     = regexp.MustCompile(`^-?(0|[1-9][0-9]*)(\.[0-9]*)?([eE][+-]?[0-9]*)?`)
	jsonNumberFull = regexp.MustCompile(`^-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?$`)
)

// FuzzNumber: on arbitrary bytes parser.number consumes exactly the
// JSON number they start with, and accepts it with
// strconv.ParseFloat's bits, or declines, consuming nothing, where
// ParseFloat rejects it or the bytes start no JSON number.
func FuzzNumber(f *testing.F) {
	for _, seed := range []string{
		"0", "-0.0e+0", "1.5,", "9007199254740993", "4.9e-324", "2.2250738585072011e-308",
		"12345678901234567891", "0.000000000000000000000000000001", "1e-99999999999999999999",
		"1e18446744073709551621", "1.00000000000000011102230246251565404236316680908203126",
		"1e400", "01", ".5", "1.", "1e", "-", "+1", "1_0", "0x10", "Infinity",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		lit := string(jsonNumber.Find(b))
		if lit != "" && jsonNumberFull.MatchString(lit) {
			checkNumber(t, b, lit)
			return
		}
		p := parser{b: b}
		if _, ok := p.number(); ok || p.i != 0 {
			t.Fatalf("%q: accepted %q, which is no JSON number", b, b[:p.i])
		}
	})
}

// TestDecodePredictAllocs pins DecodePredict's allocations on the
// http_tenants body, so the number path adds none per literal.
func TestDecodePredictAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	body := tenantsBody(t)
	rd := bytes.NewReader(body)
	r := &http.Request{Body: io.NopCloser(rd)}
	allocs := testing.AllocsPerRun(100, func() {
		rd.Reset(body)
		var req registryPredict
		if err := DecodePredict(r, 1<<20, &req, Fields{Model: &req.Model, X: &req.X, Xs: &req.Xs}); err != nil || len(req.Xs) != 8 {
			t.Fatalf("decoded %d rows: %v", len(req.Xs), err)
		}
	})
	if allocs > 9 {
		t.Fatalf("DecodePredict: %v allocs per body, want at most 9", allocs)
	}
}
