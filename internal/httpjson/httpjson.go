// Package httpjson is the JSON codec the module's HTTP handlers share:
// the response writer, the bounded request decoder, and a hand-written
// fast path for predict-shaped request bodies.
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
// The package imports only the standard library.
package httpjson

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"reflect"
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
// The predict-shaped keys are "model", "x", "xs" and "temperature".
type Fields struct {
	Model       *string
	X           *[]float64
	Xs          *[][]float64
	Temperature *float64
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
	buf := bodies.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledBody {
			buf.Reset()
			bodies.Put(buf)
		}
	}()
	_, err := buf.ReadFrom(http.MaxBytesReader(nil, r.Body, limit))
	body := buf.Bytes()
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
}

// bodies recycles DecodePredict's body buffers. Nothing it decodes
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
	keyTemperature
)

// parsePredict parses a canonical predict body and stores its values
// through f. It reports false, storing nothing, for any other body.
func parsePredict(body []byte, f Fields) bool {
	p := parser{b: body}
	want := f.keys()
	var (
		model string
		x     []float64
		xs    [][]float64
		temp  float64
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
			bit := keyBit(string(k))
			if want&bit == 0 || seen&bit != 0 {
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
			case keyTemperature:
				temp, ok = p.number()
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
	if seen&keyTemperature != 0 {
		*f.Temperature = temp
	}
	return true
}

// keyBit returns the seen-set bit of a predict-shaped key, 0 for any
// other key.
func keyBit(k string) int {
	switch k {
	case "model":
		return keyModel
	case "x":
		return keyX
	case "xs":
		return keyXs
	case "temperature":
		return keyTemperature
	}
	return 0
}

// keys returns the seen-set bits of the keys f points at.
func (f Fields) keys() int {
	k := 0
	if f.Model != nil {
		k |= keyModel
	}
	if f.X != nil {
		k |= keyX
	}
	if f.Xs != nil {
		k |= keyXs
	}
	if f.Temperature != nil {
		k |= keyTemperature
	}
	return k
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

// number consumes a JSON number and converts it with the call
// encoding/json makes for a float64 field, strconv.ParseFloat(s, 64);
// a conversion error (such as 1e400) declines.
func (p *parser) number() (float64, bool) {
	b, i := p.b, p.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i >= len(b):
		return 0, false
	case b[i] == '0':
		i++
	case '1' <= b[i] && b[i] <= '9':
		i = digits(b, i+1)
	default:
		return 0, false
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return 0, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return 0, false
		}
		i = j
	}
	v, err := strconv.ParseFloat(string(b[p.i:i]), 64)
	if err != nil {
		return 0, false
	}
	p.i = i
	return v, true
}

// digits returns the index of the first non-digit at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
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

// MarshalScore encodes a node score body, {"xs":[[...]],"temperature":t},
// byte for byte as json.Marshal encodes a struct with those two fields
// in that order: a nil batch or row is null, and NaN or ±Inf fails with
// json.Marshal's error.
func MarshalScore(xs [][]float64, temperature float64) ([]byte, error) {
	n := 32
	for _, x := range xs {
		n += 2 + 20*len(x)
	}
	b := make([]byte, 0, n)
	b = append(b, `{"xs":`...)
	var err error
	if xs == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for r, x := range xs {
			if r > 0 {
				b = append(b, ',')
			}
			if x == nil {
				b = append(b, "null"...)
				continue
			}
			b = append(b, '[')
			for i, v := range x {
				if i > 0 {
					b = append(b, ',')
				}
				if b, err = appendFloat(b, v); err != nil {
					return nil, err
				}
			}
			b = append(b, ']')
		}
		b = append(b, ']')
	}
	b = append(b, `,"temperature":`...)
	if b, err = appendFloat(b, temperature); err != nil {
		return nil, err
	}
	return append(b, '}'), nil
}

// appendFloat formats a float64 as encoding/json does: the shortest
// representation that parses back to the same value, in %f form
// between 1e-6 and 1e21 and in %e form with a trimmed exponent outside.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// Trim e-09 to e-9, as encoding/json does.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}
