package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/fleet"
	"repro/internal/httpjson"
)

// Handler returns the coordinator's HTTP API — the serve API's shape,
// answered by the whole cluster:
//
//	POST /predict  {"x":[...]} or {"xs":[[...],...]} → quorum answers
//	POST /attack   {"node":i, ...drill} → forwarded to node i
//	POST /sweep    run one anti-entropy sweep, return its report
//	GET  /cluster  coordinator + per-node status
//	GET  /journal/proof?seq=N  inclusion proof from the coordinator's
//	               own journal
//	GET  /journal/verify       re-verify the coordinator's journal
//	GET  /healthz  200 while at least one node is in rotation
func (co *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /predict", co.handlePredict)
	mux.HandleFunc("POST /attack", co.handleAttack)
	mux.HandleFunc("POST /sweep", co.handleSweep)
	mux.HandleFunc("GET /cluster", co.handleStatus)
	HandleJournal(mux, co.cfg.Journal)
	mux.HandleFunc("GET /healthz", co.handleHealthz)
	return mux
}

// HandleJournal mounts the journal endpoints on mux, answered from j:
//
//	GET /journal/proof?seq=N  Merkle inclusion proof for a sealed
//	                          event: 400 without a journal or for a bad
//	                          seq, 404 for a seq not yet sealed
//	GET /journal/verify       VerifyJournalDoc(j)
//
// A proof verifies against the sealed root carried by the seal event
// at proof.seal_seq, and against the anchor inside any snapshot taken
// after that seal. The server (and so every node and registry tenant)
// and the coordinator mount the same pair.
func HandleJournal(mux *http.ServeMux, j *fleet.Journal) {
	mux.HandleFunc("GET /journal/proof", func(w http.ResponseWriter, r *http.Request) {
		if j == nil {
			writeError(w, http.StatusBadRequest, errors.New("no journal configured"))
			return
		}
		seq, err := strconv.ParseInt(r.URL.Query().Get("seq"), 10, 64)
		if err != nil || seq <= 0 {
			writeError(w, http.StatusBadRequest, errors.New("provide seq=N (a sealed journal sequence number)"))
			return
		}
		p, err := j.Proof(seq)
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		httpjson.Write(w, http.StatusOK, p)
	})
	mux.HandleFunc("GET /journal/verify", func(w http.ResponseWriter, r *http.Request) {
		httpjson.Write(w, http.StatusOK, VerifyJournalDoc(j))
	})
}

func writeError(w http.ResponseWriter, status int, err error) {
	httpjson.Write(w, status, map[string]string{"error": err.Error()})
}

// maxCoordBody bounds coordinator request bodies.
const maxCoordBody = 64 << 20

type coordPredictRequest struct {
	X  []float64   `json:"x,omitempty"`
	Xs [][]float64 `json:"xs,omitempty"`
}

// ClusterPrediction is one quorum-answered classification.
type ClusterPrediction struct {
	Class      int     `json:"class"`
	Confidence float64 `json:"confidence"`
}

type coordPredictResponse struct {
	Prediction  *ClusterPrediction  `json:"prediction,omitempty"`
	Predictions []ClusterPrediction `json:"predictions,omitempty"`
}

func (co *Coordinator) handlePredict(w http.ResponseWriter, r *http.Request) {
	var req coordPredictRequest
	if err := httpjson.DecodePredict(r, maxCoordBody, &req, httpjson.Fields{X: &req.X, Xs: &req.Xs}); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	xs, single, err := httpjson.PredictRows(req.X, req.Xs)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	classes, confs, err := co.ScoreBatch(xs, co.Temperature())
	if err != nil {
		status := http.StatusBadGateway
		if errors.Is(err, ErrNodeBad) {
			// The node vetoed the batch (wrong arity, bad values): the
			// client's fault, not the cluster's.
			status = http.StatusBadRequest
		}
		writeError(w, status, err)
		return
	}
	preds := make([]ClusterPrediction, len(classes))
	for i := range classes {
		preds[i] = ClusterPrediction{Class: classes[i], Confidence: confs[i]}
	}
	if single {
		httpjson.Write(w, http.StatusOK, coordPredictResponse{Prediction: &preds[0]})
		return
	}
	httpjson.Write(w, http.StatusOK, coordPredictResponse{Predictions: preds})
}

// coordAttackRequest is serve's attack document plus the target node.
type coordAttackRequest struct {
	Node     *int    `json:"node"`
	Kind     string  `json:"kind"`
	Rate     float64 `json:"rate,omitempty"`
	SpanFrac float64 `json:"span_frac,omitempty"`
	FlipProb float64 `json:"flip_prob,omitempty"`
	Seed     uint64  `json:"seed,omitempty"`
}

func (co *Coordinator) handleAttack(w http.ResponseWriter, r *http.Request) {
	var req coordAttackRequest
	if err := httpjson.Decode(r, maxCoordBody, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Node == nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("specify \"node\" (0..%d)", co.Size()-1))
		return
	}
	// Forward the drill without the routing field; the node runs
	// single-model and rejects replica-targeted requests.
	body, err := json.Marshal(map[string]any{
		"kind": req.Kind, "rate": req.Rate,
		"span_frac": req.SpanFrac, "flip_prob": req.FlipProb, "seed": req.Seed,
	})
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	resp, err := co.Attack(*req.Node, body)
	if err != nil {
		switch {
		case errors.Is(err, ErrNodeBad):
			writeError(w, http.StatusBadRequest, err)
		case errors.Is(err, fleet.ErrDown):
			writeError(w, http.StatusBadGateway, err)
		default:
			// Out-of-range node id.
			writeError(w, http.StatusBadRequest, err)
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(resp)
}

func (co *Coordinator) handleSweep(w http.ResponseWriter, r *http.Request) {
	rep, err := co.SweepNow()
	if err != nil {
		httpjson.Write(w, http.StatusServiceUnavailable, map[string]any{"error": err.Error(), "report": rep})
		return
	}
	httpjson.Write(w, http.StatusOK, rep)
}

func (co *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	httpjson.Write(w, http.StatusOK, co.Status())
}

func (co *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if co.Active() == 0 {
		httpjson.Write(w, http.StatusServiceUnavailable, map[string]string{"status": "no active nodes"})
		return
	}
	httpjson.Write(w, http.StatusOK, map[string]string{"status": "ok"})
}
