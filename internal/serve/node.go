package serve

import (
	"fmt"
	"math"
	"net/http"
	"strconv"

	"repro/internal/bitvec"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/httpjson"
)

// Node API: the server side of the remote fleet.Member
// (internal/cluster). A servehd process started with -node is one
// replica — its own substrate, recoverer, scrubber, and journal — and
// these handlers are the narrow surface the cluster coordinator drives
// it through:
//
//	POST /node/score    encode + score a raw-feature batch locally
//	GET  /node/summary  per-class chunk hashes of the deployed model
//	POST /node/chunks   fetch the bits of named chunks
//	POST /node/repair   overwrite named chunks with majority images
//	GET  /node/snapshot stream a stamped core.SaveStamped image
//	POST /node/reseed   re-image the deployed model from such a stream
//
// Every handler validates ids and ranges before touching the model and
// answers 400 on anything out of range — a confused or malicious
// coordinator must not be able to panic a node. Past that wall each
// handler calls the node's fleet.Replica, the same writer type an
// in-process fleet member is: reads go lock-free through the current
// model epoch, and repair and reseed take the replica's writer lock,
// bill their writes to the node's substrate, and publish the classes
// they rewrote as a new epoch.

// registerNodeAPI mounts the node endpoints (Handler calls it when
// Config.NodeAPI is set).
func (s *Server) registerNodeAPI(mux *http.ServeMux) {
	mux.HandleFunc("POST /node/score", s.handleNodeScore)
	mux.HandleFunc("GET /node/summary", s.handleNodeSummary)
	mux.HandleFunc("POST /node/chunks", s.handleNodeChunks)
	mux.HandleFunc("POST /node/repair", s.handleNodeRepair)
	mux.HandleFunc("GET /node/snapshot", s.handleNodeSnapshot)
	mux.HandleFunc("POST /node/reseed", s.handleNodeReseed)
}

// handleNodeScore encodes and scores a batch against the local model.
// The coordinator ships raw features, not encoded hypervectors: the
// encoder is derived deterministically from (seed, config), so every
// node that loaded the same snapshot encodes bit-identically, and the
// wire stays narrow.
func (s *Server) handleNodeScore(w http.ResponseWriter, r *http.Request) {
	var req cluster.ScoreRequest
	if err := httpjson.DecodePredict(r, MaxBodyBytes, &req, httpjson.Fields{Xs: &req.Xs, Temperature: &req.Temperature}); err != nil {
		writeErr(w, fmt.Errorf("%w: %v", ErrBadInput, err))
		return
	}
	st := s.live.Load()
	if st == nil {
		writeErr(w, ErrNoModel)
		return
	}
	sys := st.sys
	if len(req.Xs) == 0 {
		writeErr(w, fmt.Errorf("%w: empty batch", ErrBadInput))
		return
	}
	if math.IsNaN(req.Temperature) || math.IsInf(req.Temperature, 0) || req.Temperature < 0 {
		writeErr(w, fmt.Errorf("%w: temperature %v", ErrBadInput, req.Temperature))
		return
	}
	want := sys.Features()
	for i, x := range req.Xs {
		if len(x) != want {
			writeErr(w, fmt.Errorf("%w: sample %d has %d features, want %d", ErrBadInput, i, len(x), want))
			return
		}
	}
	encoded := sys.EncodeAllParallel(req.Xs, allCores)
	var resp cluster.ScoreResponse
	resp.Classes, resp.Confs, _ = st.rep.Score(encoded, req.Temperature)
	s.metrics.nodeScored.Add(int64(len(encoded)))
	httpjson.Write(w, http.StatusOK, resp)
}

// handleNodeSummary reports per-class chunk hashes of the deployed
// class hypervectors — the divergence digest anti-entropy compares
// across nodes instead of shipping full models.
func (s *Server) handleNodeSummary(w http.ResponseWriter, r *http.Request) {
	st := s.live.Load()
	if st == nil {
		writeErr(w, ErrNoModel)
		return
	}
	sys := st.sys
	chunks, err := queryInt(r, "chunks", 64)
	if err != nil {
		writeErr(w, err)
		return
	}
	dims := sys.Dimensions()
	if chunks < 1 || chunks > dims {
		writeErr(w, fmt.Errorf("%w: chunks %d out of [1,%d]", ErrBadInput, chunks, dims))
		return
	}
	sum, _ := st.rep.Summary(chunks)
	httpjson.Write(w, http.StatusOK, cluster.SummaryDoc(sum))
}

// handleNodeChunks returns the bits of the named chunks so the
// coordinator can majority-vote only where summaries disagree.
func (s *Server) handleNodeChunks(w http.ResponseWriter, r *http.Request) {
	var req cluster.ChunksRequest
	if err := httpjson.Decode(r, MaxBodyBytes, &req); err != nil {
		writeErr(w, fmt.Errorf("%w: %v", ErrBadInput, err))
		return
	}
	st := s.live.Load()
	if st == nil {
		writeErr(w, ErrNoModel)
		return
	}
	sys := st.sys
	if len(req.Chunks) == 0 {
		writeErr(w, fmt.Errorf("%w: no chunks requested", ErrBadInput))
		return
	}
	for _, ref := range req.Chunks {
		if err := s.checkChunkRef(sys, ref.Class, ref.Lo, ref.Hi); err != nil {
			writeErr(w, err)
			return
		}
	}
	resp := cluster.ChunksResponse{Chunks: make([]cluster.ChunkData, len(req.Chunks))}
	vs, _ := st.rep.Chunks(req.Chunks)
	for i, v := range vs {
		bits, err := v.MarshalBinary()
		if err != nil {
			writeErr(w, err)
			return
		}
		ref := req.Chunks[i]
		resp.Chunks[i] = cluster.ChunkData{Class: ref.Class, Lo: ref.Lo, Hi: ref.Hi, Bits: bits}
	}
	httpjson.Write(w, http.StatusOK, resp)
}

// handleNodeRepair overwrites the named chunks with coordinator-voted
// majority images. Every pushed range is billed to the substrate as
// hi-lo writes — the same wear anti-entropy charges in process — and
// journaled per chunk with the bits that actually changed.
func (s *Server) handleNodeRepair(w http.ResponseWriter, r *http.Request) {
	var req cluster.RepairRequest
	if err := httpjson.Decode(r, MaxBodyBytes, &req); err != nil {
		writeErr(w, fmt.Errorf("%w: %v", ErrBadInput, err))
		return
	}
	st := s.live.Load()
	if st == nil {
		writeErr(w, ErrNoModel)
		return
	}
	sys := st.sys
	if len(req.Chunks) == 0 {
		writeErr(w, fmt.Errorf("%w: no chunks pushed", ErrBadInput))
		return
	}
	patches := make([]fleet.Patch, len(req.Chunks))
	for i, cd := range req.Chunks {
		if err := s.checkChunkRef(sys, cd.Class, cd.Lo, cd.Hi); err != nil {
			writeErr(w, err)
			return
		}
		v := new(bitvec.Vector)
		if err := v.UnmarshalBinary(cd.Bits); err != nil {
			writeErr(w, fmt.Errorf("%w: chunk %d: %v", ErrBadInput, i, err))
			return
		}
		if v.Len() != cd.Hi-cd.Lo {
			writeErr(w, fmt.Errorf("%w: chunk %d carries %d bits for range [%d,%d)", ErrBadInput, i, v.Len(), cd.Lo, cd.Hi))
			return
		}
		patches[i] = fleet.Patch{Class: cd.Class, Lo: cd.Lo, Bits: v}
	}
	changed := st.rep.Repair(patches)
	out := cluster.RepairResponse{Applied: len(req.Chunks)}
	for i, cd := range req.Chunks {
		out.Bits += cd.Hi - cd.Lo
		s.journalAppend(fleet.Event{Kind: fleet.EventRepair, Replica: -1,
			Class: cd.Class, Chunk: -1, Bits: changed[i],
			Detail: fmt.Sprintf("pushed [%d,%d)", cd.Lo, cd.Hi)})
	}
	s.metrics.nodeRepairs.Add(int64(len(req.Chunks)))
	s.metrics.nodeRepairBits.Add(int64(out.Bits))
	httpjson.Write(w, http.StatusOK, out)
}

// handleNodeSnapshot streams a stamped snapshot of the live system.
// The stamp is supplied by the coordinator (the donor's measured
// agreement with the fleet majority); absent, the image goes out
// unstamped.
func (s *Server) handleNodeSnapshot(w http.ResponseWriter, r *http.Request) {
	st := s.live.Load()
	if st == nil {
		writeErr(w, ErrNoModel)
		return
	}
	stamp := math.NaN()
	if raw := r.URL.Query().Get("stamp"); raw != "" {
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil || math.IsNaN(v) || v < 0 || v > 1 {
			writeErr(w, fmt.Errorf("%w: stamp %q out of [0,1]", ErrBadInput, raw))
			return
		}
		stamp = v
	}
	s.writeSnapshot(w, st, stamp)
}

// handleNodeReseed re-images the deployed class hypervectors from a
// stamped snapshot stream — the network form of the fleet's
// quarantine re-seed. The CRC trailer is verified before any bit is
// trusted, the shape must match the live system, and the full-image
// rewrite is billed and refreshed exactly like the in-process path:
// decayed cells recharge, wear survives.
func (s *Server) handleNodeReseed(w http.ResponseWriter, r *http.Request) {
	st := s.live.Load()
	if st == nil {
		writeErr(w, ErrNoModel)
		return
	}
	sys := st.sys
	donor, stamp, donorAnchor, err := core.LoadAnchored(http.MaxBytesReader(nil, r.Body, MaxBodyBytes))
	if err != nil {
		writeErr(w, fmt.Errorf("%w: %v", ErrBadInput, err))
		return
	}
	if err := st.rep.Reseed(donor); err != nil {
		writeErr(w, fmt.Errorf("%w: %v", ErrBadInput, err))
		return
	}
	bits := sys.Classes() * sys.Dimensions()
	s.metrics.nodeReseeds.Add(1)
	detail := "unstamped donor image"
	if !math.IsNaN(stamp) {
		detail = fmt.Sprintf("donor agreement %.4f", stamp)
	}
	if donorAnchor != nil {
		// The donor's journal anchor is foreign to this node's journal —
		// it cannot be verified here (the coordinator's donor gate does
		// that) — but recording it makes the reseed's lineage auditable:
		// this journal line names exactly which sealed history the new
		// image descends from.
		detail += fmt.Sprintf(", donor journal root %x@%d", donorAnchor.Root, donorAnchor.SealedSeq)
	}
	s.journalAppend(fleet.Event{Kind: fleet.EventReseed, Replica: -1, Class: -1, Chunk: -1,
		Bits: bits, Detail: detail})
	resp := map[string]any{"classes": sys.Classes(), "dimensions": sys.Dimensions(), "bits": bits}
	if !math.IsNaN(stamp) {
		resp["stamp"] = stamp
	}
	httpjson.Write(w, http.StatusOK, resp)
}

// checkChunkRef rejects out-of-range chunk coordinates before any
// model access — the node API's 400 wall.
func (s *Server) checkChunkRef(sys *core.System, class, lo, hi int) error {
	if class < 0 || class >= sys.Classes() {
		return fmt.Errorf("%w: class %d out of [0,%d)", ErrBadInput, class, sys.Classes())
	}
	if lo < 0 || hi > sys.Dimensions() || lo >= hi {
		return fmt.Errorf("%w: range [%d,%d) out of [0,%d)", ErrBadInput, lo, hi, sys.Dimensions())
	}
	return nil
}

// queryInt parses an optional integer query parameter.
func queryInt(r *http.Request, name string, def int) (int, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("%w: %s=%q", ErrBadInput, name, raw)
	}
	return v, nil
}
