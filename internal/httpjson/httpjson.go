// Package httpjson is the JSON codec the module's HTTP handlers share:
// the response writer, the bounded request decoder, a pooled read-once
// body reader, and a hand-written fast path for predict-shaped request
// bodies.
//
// Decoding an 8-sample predict body with encoding/json costs more than
// encoding and scoring the samples, so the predict endpoints parse the
// canonical body by hand: one JSON object whose keys are exactly the
// endpoint's own fields, each at most once, with plain ASCII strings
// and plain JSON numbers. Anything else — escapes, non-ASCII, a
// case-folded or unknown key, a duplicate, null, a value of the wrong
// kind, trailing data, a number strconv.ParseFloat rejects — is handed
// to encoding/json on the same bytes. What an endpoint accepts, rejects
// and decodes is therefore encoding/json's answer in every case; the
// fast path only gets there sooner when the body is canonical.
//
// Numbers are converted in the scan that checks their grammar, with
// the Eisel–Lemire algorithm strconv.ParseFloat itself tries first, so
// each digit is read once and the bits are ParseFloat's; ParseFloat
// runs only on the rare literal that algorithm cannot decide.
//
// The package imports only the standard library.
package httpjson

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"sync"
)

// Write emits v as a JSON response with the given status.
func Write(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// Decode decodes the first JSON value of r's body, read through
// http.MaxBytesReader with the given limit, into v with encoding/json.
func Decode(r *http.Request, limit int64, v any) error {
	return json.NewDecoder(http.MaxBytesReader(nil, r.Body, limit)).Decode(v)
}

// PredictRows applies the request rule every predict endpoint shares:
// a body carries one sample in x or a non-empty batch in xs, never
// both. It returns the rows to score and whether the body was a single
// x, which is answered with one prediction rather than a list.
func PredictRows(x []float64, xs [][]float64) (rows [][]float64, single bool, err error) {
	switch {
	case x != nil && xs != nil:
		return nil, false, errors.New("provide x or xs, not both")
	case x != nil:
		return [][]float64{x}, true, nil
	case len(xs) > 0:
		return xs, false, nil
	}
	return nil, false, errors.New("empty request: provide x or xs")
}

// Fields points the fast path at an endpoint's request struct: one
// pointer per JSON key the struct declares, nil for each key it lacks.
// The predict-shaped keys are "model", "x" and "xs".
type Fields struct {
	Model *string
	X     *[]float64
	Xs    *[][]float64
}

// DecodePredict decodes r's body into v, the request struct f points
// into, with exactly encoding/json's result. The body is read once,
// through http.MaxBytesReader with the given limit. A canonical body
// (see the package comment) is parsed by hand and stored through f;
// any other body, and any body whose read failed, is decoded by
// encoding/json from the same bytes, so the result and the error text
// are what json.NewDecoder(body).Decode(v) gives. The fast path
// stores nothing unless it accepts, so the fallback starts from the
// caller's v.
//
// The rows of a decoded xs share one backing array, each capped at its
// own length, so appending to a row cannot reach the next one.
func DecodePredict(r *http.Request, limit int64, v any, f Fields) error {
	return ReadBody(r, limit, func(body []byte, err error) error {
		if err == nil && parsePredict(body, f) {
			return nil
		}
		src := io.Reader(bytes.NewReader(body))
		if err != nil {
			// The bytes that arrived, then the read error: the stream
			// encoding/json sees when it reads the body itself.
			src = io.MultiReader(src, errReader{err})
		}
		return json.NewDecoder(src).Decode(v)
	})
}

// ReadBody reads r's body once, through http.MaxBytesReader with the
// given limit, into a pooled buffer, and returns what use makes of the
// bytes that arrived and the read error. The buffer is reused once use
// returns, so use must copy out whatever it keeps.
func ReadBody(r *http.Request, limit int64, use func(body []byte, err error) error) error {
	buf := bodies.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledBody {
			buf.Reset()
			bodies.Put(buf)
		}
	}()
	_, err := buf.ReadFrom(http.MaxBytesReader(nil, r.Body, limit))
	return use(buf.Bytes(), err)
}

// bodies recycles ReadBody's buffers. Nothing DecodePredict decodes
// aliases the body — strings are copied out and numbers parsed — so a
// buffer is free again once it returns. A buffer grown past
// maxPooledBody by an unusually large body is left to the collector.
var bodies = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBody = 1 << 20

type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// The keys of a predict-shaped body, as bits of a seen-set.
const (
	keyModel = 1 << iota
	keyX
	keyXs
)

// parsePredict parses a canonical predict body and stores its values
// through f. It reports false, storing nothing, for any other body.
func parsePredict(body []byte, f Fields) bool {
	p := parser{b: body}
	var (
		model string
		x     []float64
		xs    [][]float64
		seen  int
	)
	p.space()
	if !p.eat('{') {
		return false
	}
	p.space()
	if !p.eat('}') {
		for {
			k, ok := p.plainString()
			if !ok {
				return false
			}
			p.space()
			if !p.eat(':') {
				return false
			}
			p.space()
			bit := f.bit(string(k))
			if bit == 0 || seen&bit != 0 {
				return false
			}
			switch bit {
			case keyModel:
				var s []byte
				s, ok = p.plainString()
				model = string(s)
			case keyX:
				x, ok = p.floats(make([]float64, 0, 16))
			case keyXs:
				xs, ok = p.rows()
			}
			if !ok {
				return false
			}
			seen |= bit
			p.space()
			if p.eat('}') {
				break
			}
			if !p.eat(',') {
				return false
			}
			p.space()
		}
	}
	p.space()
	if p.i != len(p.b) {
		return false
	}
	if seen&keyModel != 0 {
		*f.Model = model
	}
	if seen&keyX != 0 {
		*f.X = x
	}
	if seen&keyXs != 0 {
		*f.Xs = xs
	}
	return true
}

// bit returns the seen-set bit of key k if f points at it, 0 for any
// other key.
func (f Fields) bit(k string) int {
	switch {
	case k == "model" && f.Model != nil:
		return keyModel
	case k == "x" && f.X != nil:
		return keyX
	case k == "xs" && f.Xs != nil:
		return keyXs
	}
	return 0
}

// parser scans a byte slice; every method leaves i past what it
// consumed and reports false on anything outside the canonical shape.
type parser struct {
	b []byte
	i int
}

// space skips JSON whitespace.
func (p *parser) space() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// eat consumes c if it is next.
func (p *parser) eat(c byte) bool {
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// plainString consumes a string of printable ASCII without escapes and
// returns its contents, which alias the body.
func (p *parser) plainString() ([]byte, bool) {
	if !p.eat('"') {
		return nil, false
	}
	start := p.i
	for p.i < len(p.b) {
		c := p.b[p.i]
		if c == '"' {
			s := p.b[start:p.i]
			p.i++
			return s, true
		}
		if c < 0x20 || c > 0x7e || c == '\\' {
			return nil, false
		}
		p.i++
	}
	return nil, false
}

// number consumes a JSON number and converts it in the same scan that
// checks its grammar: up to 19 significant digits go into a uint64
// mantissa, the fraction digits and the e part into a decimal
// exponent, and eiselLemire64 rounds the pair to the nearest float64.
// That is the value encoding/json's strconv.ParseFloat(s, 64) gives,
// and ParseFloat itself runs only where eiselLemire64 cannot answer: a
// non-zero digit past the 19th, an exponent outside the power table, a
// product too close to a rounding boundary, or a subnormal or infinite
// result. A ParseFloat error (such as 1e400) declines.
func (p *parser) number() (float64, bool) {
	b, i := p.b, p.i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	var (
		man   uint64 // the first 19 significant digits
		nd    int    // significant digits in man
		exp   int    // value = man · 10^exp, unless trunc
		trunc bool   // a non-zero digit did not fit in man
	)
	switch {
	case i >= len(b):
		return 0, false
	case b[i] == '0':
		i++
	case '1' <= b[i] && b[i] <= '9':
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			if nd < 19 {
				man = man*10 + uint64(b[i]-'0')
				nd++
			} else {
				exp++
				trunc = trunc || b[i] != '0'
			}
		}
	default:
		return 0, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		j := i
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			if nd < 19 {
				man = man*10 + uint64(b[i]-'0')
				exp--
				if man != 0 { // leading zeros are not significant
					nd++
				}
			} else {
				trunc = trunc || b[i] != '0'
			}
		}
		if i == j {
			return 0, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		eneg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			eneg = b[i] == '-'
			i++
		}
		j, e := i, 0
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			if e < 10000 { // saturate: any larger exponent is out of range
				e = e*10 + int(b[i]-'0')
			}
		}
		if i == j {
			return 0, false
		}
		if eneg {
			e = -e
		}
		exp += e
	}
	if !trunc {
		if v, ok := eiselLemire64(man, exp, neg); ok {
			p.i = i
			return v, true
		}
	}
	v, err := strconv.ParseFloat(string(b[p.i:i]), 64)
	if err != nil {
		return 0, false
	}
	p.i = i
	return v, true
}

// floats consumes an array of numbers, appending them to dst, which
// must be non-nil: an empty array decodes to an empty, non-nil slice,
// as in encoding/json.
func (p *parser) floats(dst []float64) ([]float64, bool) {
	if !p.eat('[') {
		return nil, false
	}
	p.space()
	if p.eat(']') {
		return dst, true
	}
	for {
		v, ok := p.number()
		if !ok {
			return nil, false
		}
		dst = append(dst, v)
		p.space()
		if p.eat(']') {
			return dst, true
		}
		if !p.eat(',') {
			return nil, false
		}
		p.space()
	}
}

// rows consumes an array of number arrays into rows that share one
// backing array.
func (p *parser) rows() ([][]float64, bool) {
	if !p.eat('[') {
		return nil, false
	}
	// A JSON number with its separator takes at least two bytes; most
	// take far more, so a sixteenth of the remaining body seldom needs
	// a second allocation and never over-allocates past it.
	vals := make([]float64, 0, (len(p.b)-p.i)/16)
	var ends []int
	p.space()
	if !p.eat(']') {
		for {
			var ok bool
			if vals, ok = p.floats(vals); !ok {
				return nil, false
			}
			ends = append(ends, len(vals))
			p.space()
			if p.eat(']') {
				break
			}
			if !p.eat(',') {
				return nil, false
			}
			p.space()
		}
	}
	xs := make([][]float64, len(ends))
	lo := 0
	for r, hi := range ends {
		xs[r] = vals[lo:hi:hi]
		lo = hi
	}
	return xs, true
}
