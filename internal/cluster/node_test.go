package cluster_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/serve"
)

// nodeServer boots one node over a fork of the shared seed system.
func nodeServer(t testing.TB) (*serve.Server, string) {
	t.Helper()
	_, sys := problem(t)
	return startNode(t, sys.Fork())
}

// chunk is one entry of a /node/chunks or /node/repair body as JSON
// carries it.
type chunk struct {
	Class int    `json:"class"`
	Lo    int    `json:"lo"`
	Hi    int    `json:"hi"`
	Bits  []byte `json:"bits,omitempty"`
}

type chunks struct {
	Chunks []chunk `json:"chunks"`
}

// wholeClasses names n whole-class ranges of a D-dimensional model,
// each carrying bits when bits is non-nil.
func wholeClasses(n, dims int, bits []byte) chunks {
	body := chunks{Chunks: make([]chunk, n)}
	for i := range body.Chunks {
		body.Chunks[i] = chunk{Class: 0, Lo: 0, Hi: dims, Bits: bits}
	}
	return body
}

// rawFrame writes a score frame header that may lie about its body.
func rawFrame(rows, cols uint32, vals []float64) []byte {
	b := binary.LittleEndian.AppendUint32(nil, rows)
	b = binary.LittleEndian.AppendUint32(b, cols)
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// scoreFrame writes a batch as a /node/score request frame:
// rows u32 | cols u32 | rows×cols f64.
func scoreFrame(xs [][]float64) []byte {
	var vals []float64
	for _, x := range xs {
		vals = append(vals, x...)
	}
	return rawFrame(uint32(len(xs)), uint32(len(xs[0])), vals)
}

// readAnswers reads a /node/score answer frame for a batch of rows:
// rows u32 | rows×class u32 | rows×confidence f64.
func readAnswers(t *testing.T, b []byte, rows int) ([]int, []float64) {
	t.Helper()
	if len(b) != 4+12*rows || int(binary.LittleEndian.Uint32(b)) != rows {
		t.Fatalf("answer frame of %d bytes for %d rows", len(b), rows)
	}
	classes, confs := make([]int, rows), make([]float64, rows)
	for i := range classes {
		classes[i] = int(binary.LittleEndian.Uint32(b[4+4*i:]))
		confs[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[4+4*rows+8*i:]))
	}
	return classes, confs
}

// postFrame POSTs a score frame to /node/score.
func postFrame(t *testing.T, url string, frame []byte) (*http.Response, []byte) {
	t.Helper()
	return post(t, url+"/node/score", "application/octet-stream", frame)
}

// postJSON POSTs body as JSON.
func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	return post(t, url, "application/json", raw)
}

func post(t *testing.T, url, contentType string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestNodeScoreMatchesDirectModel pins the score endpoint against the
// in-process answer: the node encodes raw features itself, so a batch
// scored over the wire must equal PredictWithConfidence on the same
// system.
func TestNodeScoreMatchesDirectModel(t *testing.T) {
	srv, url := nodeServer(t)
	ds, sys := problem(t)
	xs := ds.TestX[:8]

	resp, body := postFrame(t, url, scoreFrame(xs))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("score: status %d: %s", resp.StatusCode, body)
	}
	classes, confs := readAnswers(t, body, len(xs))
	encoded := sys.EncodeAllParallel(xs, 0)
	m := sys.Model()
	for i, q := range encoded {
		class, conf := m.PredictWithConfidence(q, 0)
		if classes[i] != class || confs[i] != conf {
			t.Fatalf("query %d: wire (%d, %v) != direct (%d, %v)", i, classes[i], confs[i], class, conf)
		}
	}
	if got := srv.MetricsSnapshot().Node.Scored; got != int64(len(xs)) {
		t.Fatalf("node scored metric = %d, want %d", got, len(xs))
	}
}

// TestNodeAPIRejectsBadRequests pins the node API's 400 wall: every
// malformed id, range, payload or score frame is rejected before any
// model access.
func TestNodeAPIRejectsBadRequests(t *testing.T) {
	srv, url := nodeServer(t)
	ds, sys := problem(t)
	dims := sys.Dimensions()

	// A structurally valid bitvec whose length disagrees with the range
	// it claims to patch.
	short := bitvec.New(8)
	shortBits, err := short.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	wholeBits, err := bitvec.New(dims).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	jsonCases := []struct {
		name, path string
		body       any
	}{
		{"chunks empty", "/node/chunks", chunks{}},
		{"chunks class out of range", "/node/chunks", chunks{Chunks: []chunk{{Class: 99, Lo: 0, Hi: 64}}}},
		{"chunks negative class", "/node/chunks", chunks{Chunks: []chunk{{Class: -1, Lo: 0, Hi: 64}}}},
		{"chunks inverted range", "/node/chunks", chunks{Chunks: []chunk{{Class: 0, Lo: 64, Hi: 64}}}},
		{"chunks range past dims", "/node/chunks", chunks{Chunks: []chunk{{Class: 0, Lo: 0, Hi: dims + 1}}}},
		{"chunks past the model's bits", "/node/chunks", wholeClasses(sys.Classes()+1, dims, nil)},
		{"repair empty", "/node/repair", chunks{}},
		{"repair garbage bits", "/node/repair", chunks{Chunks: []chunk{{Class: 0, Lo: 0, Hi: 64, Bits: []byte("nope")}}}},
		{"repair wrong-length bits", "/node/repair", chunks{Chunks: []chunk{{Class: 0, Lo: 0, Hi: 64, Bits: shortBits}}}},
		{"repair bad range", "/node/repair", chunks{Chunks: []chunk{{Class: 0, Lo: -1, Hi: 64, Bits: shortBits}}}},
		{"repair past the model's bits", "/node/repair", wholeClasses(sys.Classes()+1, dims, wholeBits)},
	}
	for _, tc := range jsonCases {
		resp, body := postJSON(t, url+tc.path, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, resp.StatusCode, body)
		}
	}

	// Score frames (cluster/wire.go): every lie a header can tell about
	// its body, and every value JSON could never carry.
	features := len(ds.TestX[0])
	row := ds.TestX[0]
	withValue := func(v float64) []float64 {
		x := append([]float64(nil), row...)
		x[features/2] = v
		return x
	}
	cols := uint32(features)
	valid := scoreFrame(ds.TestX[:2])
	frameCases := []struct {
		name string
		body []byte
	}{
		{"score header short of 8 bytes", valid[:7]},
		{"score partial feature", valid[:len(valid)-3]},
		{"score claim larger than body", valid[:len(valid)-8*features]},
		{"score 2^32-1 x 2^32-1 header", rawFrame(math.MaxUint32, math.MaxUint32, row)},
		{"score rows with zero columns", rawFrame(3, 0, nil)},
		{"score NaN feature", rawFrame(1, cols, withValue(math.NaN()))},
		{"score +Inf feature", rawFrame(1, cols, withValue(math.Inf(1)))},
		{"score -Inf feature", rawFrame(1, cols, withValue(math.Inf(-1)))},
		{"score feature mismatch", scoreFrame([][]float64{{1, 2, 3}})},
		{"score empty batch", rawFrame(0, 0, nil)},
		{"score empty batch with columns", rawFrame(0, cols, nil)},
		// The older layout carried a temperature f64 after the header:
		// its body is one float64 longer than rows×cols, never features.
		{"score 16-byte header frame", append(rawFrame(2, cols, []float64{0.05}), valid[8:]...)},
	}
	for _, tc := range frameCases {
		resp, body := postFrame(t, url, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, resp.StatusCode, body)
		}
	}
	if got := srv.MetricsSnapshot().Node.Scored; got != 0 {
		t.Errorf("refused frames were scored: %d rows", got)
	}

	// A JSON body fails the frame's header check: no JSON fallback.
	if resp, body := postJSON(t, url+"/node/score", map[string]any{"xs": ds.TestX[:1], "temperature": 0.05}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("score JSON body: status %d, want 400 (%s)", resp.StatusCode, body)
	}

	// An 8-byte frame claiming 2^32-1 rows allocates nothing from the
	// claim.
	h := srv.Handler()
	claim := rawFrame(math.MaxUint32, cols, nil)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/node/score", bytes.NewReader(claim)))
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("2^32-1 row claim: status %d, want 400", rec.Code)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("8-byte frame claiming 2^32-1 rows allocated %d bytes", got)
	}

	getCases := []struct{ name, path string }{
		{"summary zero chunks", "/node/summary?chunks=0"},
		{"summary chunks past dims", "/node/summary?chunks=1000000"},
		{"summary non-numeric chunks", "/node/summary?chunks=lots"},
		{"snapshot stamp above one", "/node/snapshot?stamp=1.5"},
		{"snapshot negative stamp", "/node/snapshot?stamp=-0.1"},
		{"snapshot non-numeric stamp", "/node/snapshot?stamp=best"},
	}
	for _, tc := range getCases {
		resp, err := http.Get(url + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}

	// Reseed: garbage stream, then a shape-mismatched donor. Both must
	// bounce before touching the live model.
	resp, err := http.Post(url+"/node/reseed", "application/octet-stream", bytes.NewReader([]byte("not a snapshot")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("reseed garbage: status %d, want 400", resp.StatusCode)
	}

	donor, err := core.Train(ds.TrainX, ds.TrainY, sys.Classes(), core.Config{Dimensions: 2048, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := donor.SaveStamped(&buf, 0.9); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(url+"/node/reseed", "application/octet-stream", &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("reseed shape mismatch: status %d, want 400", resp.StatusCode)
	}

	// After all that abuse the model must be untouched and still serving.
	resp, body := postFrame(t, url, scoreFrame(ds.TestX[:1]))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("score after rejections: status %d: %s", resp.StatusCode, body)
	}
	if got := srv.MetricsSnapshot().Node.Repairs; got != 0 {
		t.Fatalf("rejected repairs were counted: %d", got)
	}
}

// TestNodeChunkBudgetRefusesBeforeAllocating pins the node's bound on
// chunk traffic: a chunks or repair request whose ranges add up to
// more than the model's classes × dims bits — more than any sweep asks
// for — is refused with a 400 before any chunk bits are allocated, so
// it costs no more than decoding its own body. Without the bound, 5000
// whole-class refs would make the node copy, marshal and encode 5000
// class vectors.
func TestNodeChunkBudgetRefusesBeforeAllocating(t *testing.T) {
	srv, _ := nodeServer(t)
	_, sys := problem(t)
	dims := sys.Dimensions()
	wholeBits, err := bitvec.New(dims).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	for _, tc := range []struct {
		path string
		body chunks
	}{
		{"/node/chunks", wholeClasses(5000, dims, nil)},
		{"/node/repair", wholeClasses(200, dims, wholeBits)},
	} {
		raw, err := json.Marshal(tc.body)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, bytes.NewReader(raw)))
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s over the model's bits: status %d, want 400 (%s)", tc.path, rec.Code, rec.Body)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 10*uint64(len(raw)) {
			t.Errorf("%s: refused %d-byte body allocated %d bytes", tc.path, len(raw), got)
		}
	}
	if got := srv.MetricsSnapshot().Node.Repairs; got != 0 {
		t.Fatalf("refused repairs were counted: %d", got)
	}
}
