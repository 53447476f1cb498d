// Package cluster runs the replica fleet across process and machine
// boundaries: each replica is its own servehd process (own substrate,
// recoverer, scrubber, journal) behind a small HTTP/JSON node API, and
// a coordinator drives them with the fleet's own replication algorithm
// (fleet.Dispatcher) — rotating read-quorum, anti-entropy,
// quarantine/reseed and the failure ladder are not implemented here.
//
// This package holds only the network half: the node API's wire
// documents, the remote member (nodeClient, a fleet.Member over HTTP),
// and the coordinator's HTTP handlers. The node side of the API lives
// in internal/serve.
//
// The anti-entropy protocol ships summaries, not models: every node
// reports a per-class, per-chunk hash of its deployed class
// hypervectors (Summary); only chunks whose hashes disagree across the
// fleet are fetched as bits, majority-voted on the coordinator, and
// pushed back to the disagreeing nodes. A node too far gone for chunk
// repair is quarantined and re-seeded by streaming a stamped snapshot
// (core.SaveStamped / core.LoadStamped) from the most-agreeing donor.
package cluster

import (
	"fmt"
	"strconv"

	"repro/internal/fleet"
)

// Node API wire documents. The node side lives in internal/serve
// (registered when serve.Config.NodeAPI is set); the coordinator side
// is this package's client. []byte fields travel as base64 inside
// JSON; float64 fields round-trip bit-exactly through encoding/json
// (Go emits the shortest representation that re-parses to the same
// value), which the bit-identity oracle depends on.

// ScoreRequest asks a node to encode and score a batch of raw feature
// vectors against its local deployed model. nodeClient.Score writes it
// with httpjson.MarshalScore, which emits json.Marshal's bytes for it,
// and the node reads it on httpjson's canonical-body fast path.
type ScoreRequest struct {
	Xs          [][]float64 `json:"xs"`
	Temperature float64     `json:"temperature"`
}

// ScoreResponse carries the node's per-query answers, index-aligned
// with the request.
type ScoreResponse struct {
	Classes []int     `json:"classes"`
	Confs   []float64 `json:"confs"`
}

// Summary is the wire form of a fleet.Summary: the hashes travel as
// %016x hex (hash values do not survive JSON as numbers — float64
// mantissas top out at 2^53).
type Summary struct {
	Classes int        `json:"classes"`
	Dims    int        `json:"dims"`
	Chunks  int        `json:"chunks"`
	Hashes  [][]string `json:"hashes"`
}

// SummaryDoc renders a summary for the wire.
func SummaryDoc(s fleet.Summary) Summary {
	doc := Summary{Classes: s.Classes, Dims: s.Dims, Chunks: s.Chunks, Hashes: make([][]string, len(s.Hashes))}
	for c, row := range s.Hashes {
		doc.Hashes[c] = make([]string, len(row))
		for k, h := range row {
			doc.Hashes[c][k] = HashString(h)
		}
	}
	return doc
}

// parse decodes a node's summary, rejecting one whose table does not
// match its own header — a garbled answer, counted like no answer.
func (doc Summary) parse() (fleet.Summary, error) {
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

// ChunkRef names one chunk of one class hypervector by its bit range.
type ChunkRef = fleet.ChunkRef

// ChunkData is a chunk's bits in transit: Bits is the
// bitvec.Vector.MarshalBinary encoding of the Hi-Lo bit slice.
type ChunkData struct {
	Class int    `json:"class"`
	Lo    int    `json:"lo"`
	Hi    int    `json:"hi"`
	Bits  []byte `json:"bits"`
}

// ChunksRequest fetches the named chunks from a node.
type ChunksRequest struct {
	Chunks []ChunkRef `json:"chunks"`
}

// ChunksResponse returns them, index-aligned with the request.
type ChunksResponse struct {
	Chunks []ChunkData `json:"chunks"`
}

// RepairRequest pushes majority chunks onto a node; the node
// overwrites each named range and bills the writes to its substrate
// exactly like in-process anti-entropy repair.
type RepairRequest struct {
	Chunks []ChunkData `json:"chunks"`
}

// RepairResponse acknowledges a repair push.
type RepairResponse struct {
	Applied int `json:"applied"`
	Bits    int `json:"bits"`
}

// ChunkHash is the chunk digest Summary carries (fleet.ChunkHash).
var ChunkHash = fleet.ChunkHash

// HashString renders a chunk hash the way Summary carries it.
func HashString(h uint64) string { return fmt.Sprintf("%016x", h) }

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
