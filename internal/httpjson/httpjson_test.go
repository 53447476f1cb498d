package httpjson

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// The request structs of the three predict-shaped endpoints, with the
// JSON tags the handlers declare.
type (
	servePredict struct {
		X  []float64   `json:"x,omitempty"`
		Xs [][]float64 `json:"xs,omitempty"`
	}
	registryPredict struct {
		Model string      `json:"model"`
		X     []float64   `json:"x,omitempty"`
		Xs    [][]float64 `json:"xs,omitempty"`
	}
	coordPredict struct {
		X  []float64   `json:"x,omitempty"`
		Xs [][]float64 `json:"xs,omitempty"`
	}
)

// endpoint builds a fresh request struct and the Fields into it.
type endpoint struct {
	name string
	new  func() (any, Fields)
}

var endpoints = []endpoint{
	{"serve", func() (any, Fields) {
		v := new(servePredict)
		return v, Fields{X: &v.X, Xs: &v.Xs}
	}},
	{"registry", func() (any, Fields) {
		v := new(registryPredict)
		return v, Fields{Model: &v.Model, X: &v.X, Xs: &v.Xs}
	}},
	{"coordinator", func() (any, Fields) {
		v := new(coordPredict)
		return v, Fields{X: &v.X, Xs: &v.Xs}
	}},
}

// describe renders a decoded request exactly: floats by their bits,
// and nil slices apart from empty ones.
func describe(v reflect.Value) string {
	switch v.Kind() {
	case reflect.Pointer:
		return describe(v.Elem())
	case reflect.Struct:
		parts := make([]string, v.NumField())
		for i := range parts {
			parts[i] = v.Type().Field(i).Name + "=" + describe(v.Field(i))
		}
		return "{" + strings.Join(parts, " ") + "}"
	case reflect.Slice:
		if v.IsNil() {
			return "nil"
		}
		parts := make([]string, v.Len())
		for i := range parts {
			parts[i] = describe(v.Index(i))
		}
		return "[" + strings.Join(parts, ",") + "]"
	case reflect.Float64:
		return fmt.Sprintf("%016x", math.Float64bits(v.Float()))
	case reflect.String:
		return fmt.Sprintf("%q", v.String())
	}
	panic("describe: unexpected kind " + v.Kind().String())
}

func post(body []byte) *http.Request {
	return httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(body))
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// checkAgrees requires, for every endpoint, that DecodePredict gives
// exactly json.NewDecoder(body).Decode's value and error, and that the
// fast path, when it accepts, gives that same value. It reports
// whether the fast path accepted for each endpoint.
func checkAgrees(t *testing.T, body []byte) map[string]bool {
	t.Helper()
	fast := make(map[string]bool)
	for _, ep := range endpoints {
		want, _ := ep.new()
		wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(want)

		got, f := ep.new()
		gotErr := DecodePredict(post(body), 1<<20, got, f)
		if errText(gotErr) != errText(wantErr) {
			t.Fatalf("%s %q: error %q, encoding/json %q", ep.name, body, errText(gotErr), errText(wantErr))
		}
		if g, w := describe(reflect.ValueOf(got)), describe(reflect.ValueOf(want)); g != w {
			t.Fatalf("%s %q: decoded %s, encoding/json %s", ep.name, body, g, w)
		}

		only, f := ep.new()
		if fast[ep.name] = parsePredict(body, f); fast[ep.name] {
			if wantErr != nil {
				t.Fatalf("%s %q: fast path accepted what encoding/json rejects: %v", ep.name, body, wantErr)
			}
			if g, w := describe(reflect.ValueOf(only)), describe(reflect.ValueOf(want)); g != w {
				t.Fatalf("%s %q: fast path %s, encoding/json %s", ep.name, body, g, w)
			}
		} else if d, w := describe(reflect.ValueOf(only)), describe(reflect.ValueOf(zeroOf(only))); d != w {
			t.Fatalf("%s %q: fast path declined but stored %s", ep.name, body, d)
		}
	}
	return fast
}

func zeroOf(v any) any { return reflect.New(reflect.TypeOf(v).Elem()).Interface() }

// tenantsBody is the http_tenants request shape: a model id and eight
// rows of 75 floats as encoding/json prints them.
func tenantsBody(t testing.TB) []byte {
	xs := make([][]float64, 8)
	for r := range xs {
		xs[r] = make([]float64, 75)
		for i := range xs[r] {
			xs[r][i] = math.Sin(float64(r*75+i)) * math.Pow(10, float64(i%9-4))
		}
	}
	body, err := json.Marshal(map[string]any{"model": "alpha", "xs": xs})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestCanonicalBodiesTakeFastPath pins which bodies the fast path
// takes, and that it agrees with encoding/json on all of them.
func TestCanonicalBodiesTakeFastPath(t *testing.T) {
	for _, tc := range []struct {
		body string
		fast []string // endpoints whose key set the body fits
	}{
		{string(tenantsBody(t)), []string{"registry"}},
		{`{"xs":[[1,2.5,-3e-7],[0]]}`, []string{"serve", "registry", "coordinator"}},
		{`{"x":[1,-0,1E+2,0.000001]}`, []string{"serve", "registry", "coordinator"}},
		{` { "xs" : [ [ 1 , 2 ] ] , "temperature" : 0.25 } `, nil},
		{"{\n\t\"model\":\"a-b_c.1\",\"x\":[]\r\n}", []string{"registry"}},
		{`{}`, []string{"serve", "registry", "coordinator"}},
		{`{"xs":[]}`, []string{"serve", "registry", "coordinator"}},
		{`{"xs":[[],[]]}`, []string{"serve", "registry", "coordinator"}},
		{`{"x":[1],"xs":[[2]]}`, []string{"serve", "registry", "coordinator"}},
		{`{"x":[1e-400,123456789012345678901234567890]}`, []string{"serve", "registry", "coordinator"}},
	} {
		fast := checkAgrees(t, []byte(tc.body))
		for _, ep := range endpoints {
			if want := slices.Contains(tc.fast, ep.name); fast[ep.name] != want {
				t.Errorf("%s %.60q: fast path %v, want %v", ep.name, tc.body, fast[ep.name], want)
			}
		}
	}
}

// TestFallbackCases lists the bodies the fast path must hand to
// encoding/json, for every endpoint, and checks that the answer is
// encoding/json's either way.
func TestFallbackCases(t *testing.T) {
	for name, body := range map[string]string{
		"escaped string":      `{"model":"a\u0062","xs":[[1]]}`,
		"escaped quote":       `{"model":"a\"","xs":[[1]]}`,
		"non-ASCII string":    `{"model":"é","xs":[[1]]}`,
		"control character":   "{\"model\":\"a\tb\",\"xs\":[[1]]}",
		"escaped key":         `{"\u0078s":[[1]]}`,
		"case-folded key":     `{"XS":[[1]],"Model":"a"}`,
		"unknown key":         `{"xs":[[1]],"extra":1}`,
		"unknown key ignored": `{"xs":[[1]],"extra":[1,{"a":null}]}`,
		"retired key field":   "{\n\t\"model\":\"a-b_c.1\",\"key\":\"k\",\"x\":[]\r\n}",
		"duplicate key":       `{"xs":[[1]],"xs":[[2,3]]}`,
		"duplicate scalar":    `{"temperature":1,"temperature":2,"xs":[[1]]}`,
		"null batch":          `{"xs":null}`,
		"null row":            `{"xs":[null,[1]]}`,
		"null number":         `{"x":[1,null]}`,
		"null model":          `{"model":null,"xs":[[1]]}`,
		"null body":           `null`,
		"number for array":    `{"xs":5}`,
		"flat batch":          `{"xs":[1,2]}`,
		"string number":       `{"x":["1"]}`,
		"bool number":         `{"x":[true]}`,
		"object row":          `{"xs":[{"a":1}]}`,
		"number model":        `{"model":5,"xs":[[1]]}`,
		"leading zero":        `{"x":[01]}`,
		"bare fraction":       `{"x":[.5]}`,
		"bare point":          `{"x":[1.]}`,
		"plus sign":           `{"x":[+1]}`,
		"minus alone":         `{"x":[-]}`,
		"empty exponent":      `{"x":[1e]}`,
		"infinity":            `{"x":[Infinity]}`,
		"nan":                 `{"x":[NaN]}`,
		"hex":                 `{"x":[0x10]}`,
		"underscore":          `{"x":[1_000]}`,
		"overflow":            `{"x":[1e400]}`,
		"negative overflow":   `{"xs":[[-1e309]],"temperature":1}`,
		"temperature string":  `{"xs":[[1]],"temperature":"1"}`,
		"trailing comma":      `{"x":[1,]}`,
		"trailing value":      `{"xs":[[1]]} {"xs":[[2]]}`,
		"trailing garbage":    `{"xs":[[1]]}garbage`,
		"missing brace":       `{"xs":[[1]]`,
		"top-level array":     `[[1]]`,
		"empty body":          ``,
		"whitespace body":     " \n",
		"byte order mark":     "\ufeff{\"xs\":[[1]]}",
		"truncated":           `{"xs":[[1,2`,
	} {
		t.Run(name, func(t *testing.T) {
			for ep, fast := range checkAgrees(t, []byte(body)) {
				if fast {
					t.Errorf("%s: fast path took %q", ep, body)
				}
			}
		})
	}
}

// TestKeysTheStructLacks: a predict key outside the endpoint's own set
// is declined and left to encoding/json, which ignores it. No endpoint
// declares "temperature" any more.
func TestKeysTheStructLacks(t *testing.T) {
	for ep, fast := range checkAgrees(t, []byte(`{"model":"a","xs":[[1]]}`)) {
		if fast != (ep == "registry") {
			t.Errorf("%s: fast path %v", ep, fast)
		}
	}
	for ep, fast := range checkAgrees(t, []byte(`{"temperature":2,"xs":[[1]]}`)) {
		if fast {
			t.Errorf("%s: fast path took a temperature key", ep)
		}
	}
}

// TestRowsDoNotAlias: rows share a backing array but each is capped at
// its own length.
func TestRowsDoNotAlias(t *testing.T) {
	var req servePredict
	if err := DecodePredict(post([]byte(`{"xs":[[1,2],[3,4]]}`)), 1<<10, &req, Fields{X: &req.X, Xs: &req.Xs}); err != nil {
		t.Fatal(err)
	}
	_ = append(req.Xs[0], 99)
	if req.Xs[1][0] != 3 {
		t.Fatalf("appending to row 0 overwrote row 1: %v", req.Xs)
	}
}

// TestOversizedBodyIs400: a body past the limit fails with
// http.MaxBytesError, which a handler answers 400, and nothing was
// allocated from the client's length claim.
func TestOversizedBodyIs400(t *testing.T) {
	const limit = 256
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req servePredict
		if err := DecodePredict(r, limit, &req, Fields{X: &req.X, Xs: &req.Xs}); err != nil {
			Write(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
		Write(w, http.StatusOK, req)
	})
	body := []byte(`{"xs":[[` + strings.Repeat("1,", limit) + `1]]}`)
	var req servePredict
	var mbe *http.MaxBytesError
	if err := DecodePredict(post(body), limit, &req, Fields{X: &req.X, Xs: &req.Xs}); !errors.As(err, &mbe) {
		t.Fatalf("oversized body: error %v, want *http.MaxBytesError", err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, post(body))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("oversized body: status %d, want 400 (%s)", rec.Code, rec.Body)
	}

	// A value that completes inside the limit is accepted even when
	// the body runs past it, as encoding/json reading the body itself
	// accepts it.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, post([]byte(`{"xs":[[1]]}`+strings.Repeat(" ", 2*limit))))
	if rec.Code != http.StatusOK {
		t.Fatalf("value inside the limit: status %d, want 200 (%s)", rec.Code, rec.Body)
	}

	// A length claim with no body behind it allocates nothing from the
	// claim.
	claim := post(nil)
	claim.ContentLength = 1 << 40
	rec = httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h.ServeHTTP(rec, claim)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("empty body: status %d, want 400", rec.Code)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("empty body claiming 1 TiB allocated %d bytes", got)
	}
}

// FuzzPredictBody: for every body and every endpoint, the fast path
// either declines or produces exactly encoding/json's value, and
// DecodePredict's value and error are always encoding/json's.
func FuzzPredictBody(f *testing.F) {
	// Seeds stay small: minimizing a body the size of tenantsBody
	// outlasts a short fuzz budget.
	for _, seed := range []string{
		`{"model":"alpha","xs":[[0.0008414709848078966,-9613.97491879557],[1e-7,0]]}`,
		`{"xs":[[1,2.5,-3e-7],[0]],"temperature":1}`,
		`{"model":"alpha","key":"k","x":[1,-0,1E+2]}`,
		`{"xs":[[1]],"xs":[[2]]}`,
		`{"XS":[[1]]}`,
		`{"x":[01,.5,1.,+1,1e400]}`,
		`{"model":"a\u0062","xs":null}`,
		` {"xs" : [ [ ] ] } x`,
		`{"x":[9007199254740993,2.2250738585072011e-308]}`,
		`{"x":[4.9e-324,-5e-324]}`,
		`{"xs":[[1234567890123456789,12345678901234567891]]}`,
		`{"x":[0.000000000000000000000000000001]}`,
		`{"x":[1e-99999999999999999999]}`,
		`{"x":[-0.0e+0]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkAgrees(t, body)
	})
}
