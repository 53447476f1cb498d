// Package cluster runs the replica fleet across process and machine
// boundaries: each replica is its own servehd process (own substrate,
// recoverer, scrubber, journal) behind a small HTTP node API, and
// a coordinator drives them with the fleet's own replication algorithm
// (fleet.Dispatcher) — rotating read-quorum, anti-entropy,
// quarantine/reseed and the failure ladder are not implemented here.
//
// This package holds the whole network half, both ends of the node
// API: its wire documents, the node's handlers (Node, mounted by
// internal/serve when serve.Config.NodeAPI is set), the remote member
// (nodeClient, a fleet.Member over HTTP), and the coordinator's HTTP
// handlers.
//
// The anti-entropy protocol ships summaries, not models: every node
// reports a per-class, per-chunk hash of its deployed class
// hypervectors (summary); only chunks whose hashes disagree across the
// fleet are fetched as bits, majority-voted on the coordinator, and
// pushed back to the disagreeing nodes. A node too far gone for chunk
// repair is quarantined and re-seeded by streaming a stamped snapshot
// (core.SaveStamped / core.LoadStamped) from the most-agreeing donor.
package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strconv"

	"repro/internal/fleet"
)

// Node API wire documents, written and read only in this package: by
// the node's handlers (node.go) and by its client (client.go). []byte
// fields travel as base64 inside JSON, except on /node/score, which
// speaks one little-endian application/octet-stream frame each way:
//
//	request:  rows u32 | cols u32 | rows×cols f64
//	response: rows u32 | rows×class u32 | rows×confidence f64
//
// A float64 travels as its IEEE-754 bits, so features and confidences
// cross exactly, which the bit-identity oracle depends on. The node
// scores at the model's one fixed softmax scale, so the request
// carries only the batch.
const scoreHeader = 8

// Score frame refusals are fixed values: a refused frame allocates
// nothing.
var (
	errFrameShape   = errors.New("score frame: header does not match the body")
	errFrameEmpty   = errors.New("score frame: empty batch or rows without features")
	errFrameFeature = errors.New("score frame: non-finite feature")
	errFrameRows    = errors.New("score frame: rows differ in length or number 2^32 or more")
	errAnswersShape = errors.New("score answers: length does not match the batch")
)

// encodeScoreFrame writes a batch's request frame. It refuses, with the
// decoder's errors, every batch the node would refuse and every ragged
// one, and checks all row lengths before it sizes the frame.
func encodeScoreFrame(xs [][]float64) ([]byte, error) {
	if len(xs) == 0 || len(xs[0]) == 0 {
		return nil, errFrameEmpty
	}
	cols := len(xs[0])
	if uint64(len(xs)) > math.MaxUint32 || uint64(cols) > math.MaxUint32 {
		return nil, errFrameRows
	}
	for _, x := range xs {
		if len(x) != cols {
			return nil, errFrameRows
		}
	}
	b := make([]byte, scoreHeader, scoreHeader+8*len(xs)*cols)
	binary.LittleEndian.PutUint32(b, uint32(len(xs)))
	binary.LittleEndian.PutUint32(b[4:], uint32(cols))
	for _, x := range xs {
		for _, v := range x {
			if !finite(v) {
				return nil, errFrameFeature
			}
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	return b, nil
}

// decodeScoreFrame reads a request frame: a non-empty batch of rows of
// at least one finite feature each. The header's claim is checked
// against the bytes present before anything is allocated, so
// allocation is bounded by the body. The rows share one backing array,
// each capped at its own length.
func decodeScoreFrame(b []byte) ([][]float64, error) {
	if len(b) < scoreHeader || (len(b)-scoreHeader)%8 != 0 {
		return nil, errFrameShape
	}
	rows := uint64(binary.LittleEndian.Uint32(b))
	cols := uint64(binary.LittleEndian.Uint32(b[4:]))
	body := b[scoreHeader:]
	switch {
	case rows == 0 || cols == 0:
		return nil, errFrameEmpty
	case rows*cols != uint64(len(body)/8): // both below 2^32: no overflow
		return nil, errFrameShape
	}
	for i := 0; i < len(body); i += 8 {
		if !finite(math.Float64frombits(binary.LittleEndian.Uint64(body[i:]))) {
			return nil, errFrameFeature
		}
	}
	vals := make([]float64, len(body)/8)
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[8*i:]))
	}
	n := int(cols)
	xs := make([][]float64, rows)
	for r := range xs {
		xs[r] = vals[r*n : (r+1)*n : (r+1)*n]
	}
	return xs, nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// encodeScoreAnswers writes the node's response frame.
func encodeScoreAnswers(classes []int, confs []float64) []byte {
	b := binary.LittleEndian.AppendUint32(make([]byte, 0, 4+12*len(classes)), uint32(len(classes)))
	for _, c := range classes {
		b = binary.LittleEndian.AppendUint32(b, uint32(c))
	}
	for _, v := range confs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// decodeScoreAnswers reads the response frame for a batch of rows.
func decodeScoreAnswers(b []byte, rows int) ([]int, []float64, error) {
	if len(b) < 4 || uint64(binary.LittleEndian.Uint32(b)) != uint64(rows) || len(b)-4 != 12*rows {
		return nil, nil, errAnswersShape
	}
	classes, confs := make([]int, rows), make([]float64, rows)
	for i := range classes {
		classes[i] = int(binary.LittleEndian.Uint32(b[4+4*i:]))
		confs[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[4+4*rows+8*i:]))
	}
	return classes, confs, nil
}

// summary is the wire form of a fleet.Summary: the hashes travel as
// %016x hex (hash values do not survive JSON as numbers — float64
// mantissas top out at 2^53).
type summary struct {
	Classes int        `json:"classes"`
	Dims    int        `json:"dims"`
	Chunks  int        `json:"chunks"`
	Hashes  [][]string `json:"hashes"`
}

// summaryDoc renders a summary for the wire.
func summaryDoc(s fleet.Summary) summary {
	doc := summary{Classes: s.Classes, Dims: s.Dims, Chunks: s.Chunks, Hashes: make([][]string, len(s.Hashes))}
	for c, row := range s.Hashes {
		doc.Hashes[c] = make([]string, len(row))
		for k, h := range row {
			doc.Hashes[c][k] = fmt.Sprintf("%016x", h)
		}
	}
	return doc
}

// parse decodes a node's summary, rejecting one whose table does not
// match its own header — a garbled answer, counted like no answer.
func (doc summary) parse() (fleet.Summary, error) {
	s := fleet.Summary{Classes: doc.Classes, Dims: doc.Dims, Chunks: doc.Chunks, Hashes: make([][]uint64, len(doc.Hashes))}
	if len(doc.Hashes) != doc.Classes {
		return s, fmt.Errorf("%w: summary has %d rows for %d classes", fleet.ErrDown, len(doc.Hashes), doc.Classes)
	}
	for c, row := range doc.Hashes {
		if len(row) != doc.Chunks {
			return s, fmt.Errorf("%w: summary row %d has %d hashes for %d chunks", fleet.ErrDown, c, len(row), doc.Chunks)
		}
		s.Hashes[c] = make([]uint64, len(row))
		for k, h := range row {
			v, err := strconv.ParseUint(h, 16, 64)
			if err != nil {
				return s, fmt.Errorf("%w: summary hash %q: %v", fleet.ErrDown, h, err)
			}
			s.Hashes[c][k] = v
		}
	}
	return s, nil
}

// chunksRequest fetches the named chunks from a node.
type chunksRequest struct {
	Chunks []fleet.ChunkRef `json:"chunks"`
}

// chunkData is a chunk's bits in transit: Bits is the
// bitvec.Vector.MarshalBinary encoding of the Hi-Lo bit slice.
type chunkData struct {
	fleet.ChunkRef
	Bits []byte `json:"bits"`
}

// chunkList carries chunk images both ways: a node's answer to
// /node/chunks, index-aligned with the request, and the majority
// images /node/repair pushes.
type chunkList struct {
	Chunks []chunkData `json:"chunks"`
}

// JournalVerifyResponse is the /journal/verify wire document, shared
// by serve nodes and the coordinator. Enabled is false when the
// process runs without a journal; OK means the journal's backing file
// re-verified end to end AND matches the live chain tip (so on-disk
// tampering behind the process — including suffix truncation — is
// caught); Report carries the replayed seal inventory.
type JournalVerifyResponse struct {
	Enabled bool                `json:"enabled"`
	OK      bool                `json:"ok"`
	Error   string              `json:"error,omitempty"`
	Live    fleet.JournalStats  `json:"live"`
	Report  *fleet.VerifyReport `json:"report,omitempty"`
}

// VerifyJournalDoc builds the /journal/verify response for a journal
// (nil journals report disabled). It is the single implementation
// behind the serve and coordinator endpoints and the coordinator's
// donor-trust gate.
func VerifyJournalDoc(j *fleet.Journal) JournalVerifyResponse {
	if j == nil {
		return JournalVerifyResponse{}
	}
	out := JournalVerifyResponse{Enabled: true, Live: j.Stats()}
	rep, err := j.VerifyFile()
	out.Report = &rep
	if err != nil {
		out.Error = err.Error()
		return out
	}
	out.OK = true
	return out
}
