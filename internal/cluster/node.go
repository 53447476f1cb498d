package cluster

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync/atomic"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/httpjson"
)

// Node is the server side of the node API, the far end of nodeClient.
// A servehd process started with -node is one replica — its own
// substrate, recoverer, scrubber, and journal — and Node's handlers
// (Register) are the narrow surface the coordinator drives it through.
// Every handler validates ids and ranges before touching the model and
// answers 400 on anything out of range — a confused or malicious
// coordinator must not be able to panic a node. Past that wall each
// handler calls the node's fleet.Replica, the same writer type an
// in-process fleet member is: reads go lock-free through the current
// model epoch, and repair and reseed take the replica's writer lock,
// bill their writes to the node's substrate, and publish the classes
// they rewrote as a new epoch.
type Node struct {
	live    func() (*core.System, *fleet.Replica)
	journal *fleet.Journal
	modelID string

	scored     atomic.Int64
	repairs    atomic.Int64
	repairBits atomic.Int64
	reseeds    atomic.Int64
}

// NewNode builds the node API over a view of the live install (nils
// before the first one); it journals to j as modelID and anchors to j.
func NewNode(live func() (*core.System, *fleet.Replica), j *fleet.Journal, modelID string) *Node {
	return &Node{live: live, journal: j, modelID: modelID}
}

// Register mounts the node endpoints on mux.
func (n *Node) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST /node/score", n.handleScore)      // encode + score a raw-feature batch
	mux.HandleFunc("GET /node/summary", n.handleSummary)   // per-class chunk hashes of the model
	mux.HandleFunc("POST /node/chunks", n.handleChunks)    // fetch the bits of named chunks
	mux.HandleFunc("POST /node/repair", n.handleRepair)    // overwrite chunks with majority images
	mux.HandleFunc("GET /node/snapshot", n.handleSnapshot) // stream a stamped, anchored image
	mux.HandleFunc("POST /node/reseed", n.handleReseed)    // re-image the model from such a stream
}

// NodeInfo reports cluster-node activity: what the coordinator asked
// this process to score and repair.
type NodeInfo struct {
	Scored     int64 `json:"scored"`
	Repairs    int64 `json:"repairs"`
	RepairBits int64 `json:"repair_bits"`
	Reseeds    int64 `json:"reseeds"`
}

// Info snapshots the node counters.
func (n *Node) Info() *NodeInfo {
	return &NodeInfo{n.scored.Load(), n.repairs.Load(), n.repairBits.Load(), n.reseeds.Load()}
}

// maxNodeBody bounds node request bodies, reseed images included.
const maxNodeBody = 256 << 20

// badInput answers 400 in the serving API's words (a node is servehd).
func badInput(w http.ResponseWriter, format string, args ...any) {
	writeError(w, http.StatusBadRequest, fmt.Errorf("serve: bad input: "+format, args...))
}

// installed returns the live install, or answers 503 before the first.
func (n *Node) installed(w http.ResponseWriter) (*core.System, *fleet.Replica, bool) {
	sys, rep := n.live()
	if sys == nil {
		writeError(w, http.StatusServiceUnavailable, errors.New("serve: no model loaded"))
		return nil, nil, false
	}
	return sys, rep, true
}

// handleScore encodes and scores a batch against the local model.
// The coordinator ships raw features, not encoded hypervectors: the
// encoder is derived deterministically from (seed, config), so every
// node that loaded the same snapshot encodes bit-identically, and the
// wire stays narrow.
func (n *Node) handleScore(w http.ResponseWriter, r *http.Request) {
	var xs [][]float64
	err := httpjson.ReadBody(r, maxNodeBody, func(body []byte, err error) error {
		if err == nil {
			// The frame's values are copied out: body goes back to the pool.
			xs, err = decodeScoreFrame(body)
		}
		return err
	})
	if err != nil {
		badInput(w, "%v", err)
		return
	}
	sys, rep, ok := n.installed(w)
	if !ok {
		return
	}
	if want := sys.Features(); len(xs[0]) != want {
		badInput(w, "samples have %d features, want %d", len(xs[0]), want)
		return
	}
	encoded := sys.EncodeAllParallel(xs, 0)
	classes, confs, _ := rep.Score(encoded)
	n.scored.Add(int64(len(encoded)))
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(encodeScoreAnswers(classes, confs))
}

// handleSummary reports per-class chunk hashes of the deployed class
// hypervectors — the divergence digest anti-entropy compares across
// nodes instead of shipping full models.
func (n *Node) handleSummary(w http.ResponseWriter, r *http.Request) {
	sys, rep, ok := n.installed(w)
	if !ok {
		return
	}
	raw := cmp.Or(r.URL.Query().Get("chunks"), "64")
	chunks, err := strconv.Atoi(raw)
	if err != nil {
		badInput(w, "chunks=%q", raw)
		return
	}
	dims := sys.Dimensions()
	if chunks < 1 || chunks > dims {
		badInput(w, "chunks %d out of [1,%d]", chunks, dims)
		return
	}
	sum, _ := rep.Summary(chunks)
	httpjson.Write(w, http.StatusOK, summaryDoc(sum))
}

// handleChunks returns the bits of the named chunks so the
// coordinator can majority-vote only where summaries disagree.
func (n *Node) handleChunks(w http.ResponseWriter, r *http.Request) {
	var req chunksRequest
	if err := httpjson.Decode(r, maxNodeBody, &req); err != nil {
		badInput(w, "%v", err)
		return
	}
	sys, rep, ok := n.installed(w)
	if !ok {
		return
	}
	if len(req.Chunks) == 0 {
		badInput(w, "no chunks requested")
		return
	}
	if _, err := checkRefs(sys, len(req.Chunks), func(i int) fleet.ChunkRef { return req.Chunks[i] }); err != nil {
		badInput(w, "%v", err)
		return
	}
	resp := chunkList{Chunks: make([]chunkData, len(req.Chunks))}
	vs, _ := rep.Chunks(req.Chunks)
	for i, v := range vs {
		bits, err := v.MarshalBinary()
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		resp.Chunks[i] = chunkData{ChunkRef: req.Chunks[i], Bits: bits}
	}
	httpjson.Write(w, http.StatusOK, resp)
}

// handleRepair overwrites the named chunks with coordinator-voted
// majority images. Every pushed range is billed to the substrate as
// hi-lo writes — the same wear anti-entropy charges in process — and
// journaled per chunk with the bits that actually changed.
func (n *Node) handleRepair(w http.ResponseWriter, r *http.Request) {
	var req chunkList
	if err := httpjson.Decode(r, maxNodeBody, &req); err != nil {
		badInput(w, "%v", err)
		return
	}
	sys, rep, ok := n.installed(w)
	if !ok {
		return
	}
	if len(req.Chunks) == 0 {
		badInput(w, "no chunks pushed")
		return
	}
	bits, err := checkRefs(sys, len(req.Chunks), func(i int) fleet.ChunkRef { return req.Chunks[i].ChunkRef })
	if err != nil {
		badInput(w, "%v", err)
		return
	}
	patches := make([]fleet.Patch, len(req.Chunks))
	for i, cd := range req.Chunks {
		v := new(bitvec.Vector)
		if err := v.UnmarshalBinary(cd.Bits); err != nil {
			badInput(w, "chunk %d: %v", i, err)
			return
		}
		if v.Len() != cd.Hi-cd.Lo {
			badInput(w, "chunk %d carries %d bits for range [%d,%d)", i, v.Len(), cd.Lo, cd.Hi)
			return
		}
		patches[i] = fleet.Patch{Class: cd.Class, Lo: cd.Lo, Bits: v}
	}
	changed := rep.Repair(patches)
	for i, cd := range req.Chunks {
		_ = n.journal.Append(fleet.Event{Kind: fleet.EventRepair, Model: n.modelID, Replica: -1,
			Class: cd.Class, Chunk: -1, Bits: changed[i],
			Detail: fmt.Sprintf("pushed [%d,%d)", cd.Lo, cd.Hi)})
	}
	n.repairs.Add(int64(len(req.Chunks)))
	n.repairBits.Add(int64(bits))
	httpjson.Write(w, http.StatusOK, map[string]int{"applied": len(req.Chunks), "bits": bits})
}

// handleSnapshot streams a stamped snapshot of the live system,
// anchored to the node's journal. The stamp is supplied by the
// coordinator (the donor's measured agreement with the fleet
// majority); absent, the image goes out unstamped.
func (n *Node) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	_, rep, ok := n.installed(w)
	if !ok {
		return
	}
	stamp := math.NaN()
	if raw := r.URL.Query().Get("stamp"); raw != "" {
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil || math.IsNaN(v) || v < 0 || v > 1 {
			badInput(w, "stamp %q out of [0,1]", raw)
			return
		}
		stamp = v
	}
	var anchor *core.JournalAnchor
	if a, ok := n.journal.Anchor(); ok {
		anchor = &a
	}
	var buf bytes.Buffer
	if err := rep.Save(&buf, stamp, anchor); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	_, _ = w.Write(buf.Bytes())
}

// handleReseed re-images the deployed class hypervectors from a
// stamped snapshot stream — the network form of the fleet's
// quarantine re-seed. The CRC trailer is verified before any bit is
// trusted, the shape must match the live system, and the full-image
// rewrite is billed and refreshed exactly like the in-process path:
// decayed cells recharge, wear survives.
func (n *Node) handleReseed(w http.ResponseWriter, r *http.Request) {
	sys, rep, ok := n.installed(w)
	if !ok {
		return
	}
	donor, stamp, donorAnchor, err := core.LoadAnchored(http.MaxBytesReader(nil, r.Body, maxNodeBody))
	if err != nil {
		badInput(w, "%v", err)
		return
	}
	if err := rep.Reseed(donor); err != nil {
		badInput(w, "%v", err)
		return
	}
	bits := sys.Classes() * sys.Dimensions()
	n.reseeds.Add(1)
	resp := map[string]any{"classes": sys.Classes(), "dimensions": sys.Dimensions(), "bits": bits}
	detail := "unstamped donor image"
	if !math.IsNaN(stamp) {
		detail = fmt.Sprintf("donor agreement %.4f", stamp)
		resp["stamp"] = stamp
	}
	if donorAnchor != nil {
		// The donor's anchor is foreign to this journal (the coordinator's
		// donor gate verifies it), but recording it names the sealed
		// history the new image descends from: the lineage stays auditable.
		detail += fmt.Sprintf(", donor journal root %x@%d", donorAnchor.Root, donorAnchor.SealedSeq)
	}
	_ = n.journal.Append(fleet.Event{Kind: fleet.EventReseed, Model: n.modelID, Replica: -1, Class: -1, Chunk: -1,
		Bits: bits, Detail: detail})
	httpjson.Write(w, http.StatusOK, resp)
}

// checkRefs is the 400 wall for chunk requests, run before any chunk
// bits are allocated: each of the n refs must name a class of sys and
// a non-empty range inside its dimensions, and together they may name
// at most the model's classes × dims bits (a sweep names each (class,
// chunk) at most once). It returns the bits they name.
func checkRefs(sys *core.System, n int, ref func(i int) fleet.ChunkRef) (int, error) {
	classes, dims := sys.Classes(), sys.Dimensions()
	bits := 0
	for i := range n {
		r := ref(i)
		if r.Class < 0 || r.Class >= classes {
			return 0, fmt.Errorf("class %d out of [0,%d)", r.Class, classes)
		}
		if r.Lo < 0 || r.Hi > dims || r.Lo >= r.Hi {
			return 0, fmt.Errorf("range [%d,%d) out of [0,%d)", r.Lo, r.Hi, dims)
		}
		if bits += r.Hi - r.Lo; bits > classes*dims {
			return 0, fmt.Errorf("chunks ask for more than the model's %d bits", classes*dims)
		}
	}
	return bits, nil
}
