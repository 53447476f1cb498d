package serve

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fleet"
)

func nodeServer(t testing.TB) (*Server, string) {
	t.Helper()
	srv, ts, _ := freshServer(t, Config{NodeAPI: true, DisableRecovery: true})
	return srv, ts.URL
}

// scoreFrame encodes a batch as a /node/score request frame.
func scoreFrame(t *testing.T, xs [][]float64, temperature float64) []byte {
	t.Helper()
	b, err := cluster.EncodeScoreFrame(xs, temperature)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// rawFrame writes a score frame header that may lie about its body.
func rawFrame(rows, cols uint32, temperature float64, vals []float64) []byte {
	b := binary.LittleEndian.AppendUint32(nil, rows)
	b = binary.LittleEndian.AppendUint32(b, cols)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(temperature))
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// postFrame POSTs a score frame to /node/score.
func postFrame(t *testing.T, url string, frame []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/node/score", "application/octet-stream", bytes.NewReader(frame))
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
	ds, _, _ := problem(t)
	xs := ds.TestX[:8]
	const temp = 0.05

	resp, body := postFrame(t, url, scoreFrame(t, xs, temp))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("score: status %d: %s", resp.StatusCode, body)
	}
	classes, confs, err := cluster.DecodeScoreAnswers(body, len(xs))
	if err != nil {
		t.Fatal(err)
	}
	sys := srv.system()
	encoded := sys.EncodeAllParallel(xs, 0)
	m := sys.Model()
	for i, q := range encoded {
		class, conf := m.PredictWithConfidence(q, temp)
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
	sys := srv.system()
	dims := sys.Dimensions()

	// A structurally valid bitvec whose length disagrees with the range
	// it claims to patch.
	short := bitvec.New(8)
	shortBits, err := short.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	jsonCases := []struct {
		name, path string
		body       any
	}{
		{"chunks empty", "/node/chunks", cluster.ChunksRequest{}},
		{"chunks class out of range", "/node/chunks", cluster.ChunksRequest{Chunks: []cluster.ChunkRef{{Class: 99, Lo: 0, Hi: 64}}}},
		{"chunks negative class", "/node/chunks", cluster.ChunksRequest{Chunks: []cluster.ChunkRef{{Class: -1, Lo: 0, Hi: 64}}}},
		{"chunks inverted range", "/node/chunks", cluster.ChunksRequest{Chunks: []cluster.ChunkRef{{Class: 0, Lo: 64, Hi: 64}}}},
		{"chunks range past dims", "/node/chunks", cluster.ChunksRequest{Chunks: []cluster.ChunkRef{{Class: 0, Lo: 0, Hi: dims + 1}}}},
		{"repair empty", "/node/repair", cluster.RepairRequest{}},
		{"repair garbage bits", "/node/repair", cluster.RepairRequest{Chunks: []cluster.ChunkData{{Class: 0, Lo: 0, Hi: 64, Bits: []byte("nope")}}}},
		{"repair wrong-length bits", "/node/repair", cluster.RepairRequest{Chunks: []cluster.ChunkData{{Class: 0, Lo: 0, Hi: 64, Bits: shortBits}}}},
		{"repair bad range", "/node/repair", cluster.RepairRequest{Chunks: []cluster.ChunkData{{Class: 0, Lo: -1, Hi: 64, Bits: shortBits}}}},
	}
	for _, tc := range jsonCases {
		resp, body := postJSON(t, url+tc.path, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, resp.StatusCode, body)
		}
	}

	// Score frames (cluster/wire.go): every lie a header can tell about
	// its body, and every value JSON could never carry.
	ds, spec, _ := problem(t)
	features := len(ds.TestX[0])
	row := ds.TestX[0]
	withValue := func(v float64) []float64 {
		x := append([]float64(nil), row...)
		x[features/2] = v
		return x
	}
	cols := uint32(features)
	valid := scoreFrame(t, ds.TestX[:2], 0.05)
	frameCases := []struct {
		name string
		body []byte
	}{
		{"score header short of 16 bytes", valid[:15]},
		{"score partial feature", valid[:len(valid)-3]},
		{"score claim larger than body", valid[:len(valid)-8*features]},
		{"score 2^32-1 x 2^32-1 header", rawFrame(math.MaxUint32, math.MaxUint32, 0.05, row)},
		{"score rows with zero columns", rawFrame(3, 0, 0.05, nil)},
		{"score NaN feature", rawFrame(1, cols, 0.05, withValue(math.NaN()))},
		{"score +Inf feature", rawFrame(1, cols, 0.05, withValue(math.Inf(1)))},
		{"score -Inf feature", rawFrame(1, cols, 0.05, withValue(math.Inf(-1)))},
		{"score feature mismatch", scoreFrame(t, [][]float64{{1, 2, 3}}, 0.05)},
		{"score empty batch", rawFrame(0, 0, 0.05, nil)},
		{"score empty batch with columns", rawFrame(0, cols, 0.05, nil)},
		{"score negative temperature", rawFrame(1, cols, -1, row)},
		{"score NaN temperature", rawFrame(1, cols, math.NaN(), row)},
	}
	for _, tc := range frameCases {
		resp, body := postFrame(t, url, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, resp.StatusCode, body)
		}
	}

	// A JSON body fails the frame's header check: no JSON fallback.
	if resp, body := postJSON(t, url+"/node/score", map[string]any{"xs": ds.TestX[:1], "temperature": 0.05}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("score JSON body: status %d, want 400 (%s)", resp.StatusCode, body)
	}

	// A 16-byte frame claiming 2^32-1 rows allocates nothing from the
	// claim.
	h := srv.Handler()
	claim := rawFrame(math.MaxUint32, cols, 0.05, nil)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/node/score", bytes.NewReader(claim)))
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("2^32-1 row claim: status %d, want 400", rec.Code)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("16-byte frame claiming 2^32-1 rows allocated %d bytes", got)
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

	donor, err := core.Train(ds.TrainX, ds.TrainY, spec.Classes, core.Config{Dimensions: 2048, Seed: 7})
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
	resp, body := postFrame(t, url, scoreFrame(t, ds.TestX[:1], 0.05))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("score after rejections: status %d: %s", resp.StatusCode, body)
	}
	if got := srv.MetricsSnapshot().Node.Repairs; got != 0 {
		t.Fatalf("rejected repairs were counted: %d", got)
	}
}

// TestAttackRejectsReplicaOnSingleModel pins the routing 400: a
// replica-targeted drill against a single-model server is a client
// error, not a silent whole-model attack.
func TestAttackRejectsReplicaOnSingleModel(t *testing.T) {
	_, ts, _ := freshServer(t, Config{DisableRecovery: true})
	replica := 0
	resp, body := postJSON(t, ts.URL+"/attack", map[string]any{
		"kind": "random", "rate": 0.01, "replica": replica,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("single-model replica attack: status %d, want 400 (%s)", resp.StatusCode, body)
	}
}

// TestNewRejectsNodeAPIWithFleet pins the config conflict: a node IS
// one replica, so stacking an in-process fleet inside it would nest
// quorums.
func TestNewRejectsNodeAPIWithFleet(t *testing.T) {
	_, _, sys := problem(t)
	var buf bytes.Buffer
	if err := sys.Save(&buf); err != nil {
		t.Fatal(err)
	}
	clone, err := core.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	_, err = New(clone, Config{
		NodeAPI:         true,
		Fleet:           &fleet.Config{Replicas: 3},
		DisableRecovery: true,
	})
	if err == nil {
		t.Fatal("NodeAPI + Fleet accepted, want error")
	}
}
