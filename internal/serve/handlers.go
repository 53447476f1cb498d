package serve

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"

	"repro/internal/attack"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/httpjson"
)

// MaxBodyBytes bounds request bodies (training sets and snapshots
// included) on the server's API and the registry's; oversized requests
// fail decoding rather than exhausting memory.
const MaxBodyBytes = 256 << 20

// Handler returns the server's HTTP API:
//
//	POST /predict   {"x":[...]} or {"xs":[[...],...]} → predictions
//	POST /train     train a fresh system from inline data, or refine
//	                the live one in place ("online": true)
//	GET  /snapshot  binary core.Save checkpoint of the live system
//	POST /restore   install a checkpoint (the /snapshot format)
//	POST /attack    live bit-flip drill on the deployed model
//	GET  /metrics   operational counters + recovery stats + probe
//	GET  /journal/proof?seq=N  Merkle inclusion proof for a sealed
//	                journal event
//	GET  /journal/verify       re-verify the journal file vs the live
//	                chain (tamper check)
//	GET  /healthz   200 once a model is installed, 503 before
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /predict", s.handlePredict)
	mux.HandleFunc("POST /train", s.handleTrain)
	mux.HandleFunc("GET /snapshot", s.handleSnapshot)
	mux.HandleFunc("POST /restore", s.handleRestore)
	mux.HandleFunc("POST /attack", s.handleAttack)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /fleet", s.handleFleet)
	cluster.HandleJournal(mux, s.cfg.Journal)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	if s.cfg.NodeAPI {
		s.registerNodeAPI(mux)
	}
	return mux
}

// writeErr maps serving errors onto HTTP statuses.
func writeErr(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrBadInput):
		status = http.StatusBadRequest
	case errors.Is(err, ErrNoModel):
		status = http.StatusServiceUnavailable
	case errors.Is(err, ErrClosed):
		status = http.StatusServiceUnavailable
	case errors.Is(err, ErrSuperseded):
		status = http.StatusConflict
	}
	httpjson.Write(w, status, map[string]string{"error": err.Error()})
}

// predictRequest accepts a single sample or a batch.
type predictRequest struct {
	X  []float64   `json:"x,omitempty"`
	Xs [][]float64 `json:"xs,omitempty"`
}

type predictResponse struct {
	Prediction  *Prediction  `json:"prediction,omitempty"`
	Predictions []Prediction `json:"predictions,omitempty"`
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	var req predictRequest
	if err := httpjson.DecodePredict(r, MaxBodyBytes, &req, httpjson.Fields{X: &req.X, Xs: &req.Xs}); err != nil {
		writeErr(w, fmt.Errorf("%w: %v", ErrBadInput, err))
		return
	}
	rows, single, err := httpjson.PredictRows(req.X, req.Xs)
	if err != nil {
		writeErr(w, fmt.Errorf("%w: %v", ErrBadInput, err))
		return
	}
	preds, err := s.PredictMany(rows)
	if err != nil {
		writeErr(w, err)
		return
	}
	if single {
		httpjson.Write(w, http.StatusOK, predictResponse{Prediction: &preds[0]})
		return
	}
	httpjson.Write(w, http.StatusOK, predictResponse{Predictions: preds})
}

// TrainRequest is the fresh-train body /train and the registry's
// POST /models share: an inline training set plus the core
// configuration. ProbeX/ProbeY optionally install a held-out set for
// the accuracy probe in the same call.
type TrainRequest struct {
	X       [][]float64 `json:"x"`
	Y       []int       `json:"y"`
	Classes int         `json:"classes"`

	Dimensions    int    `json:"dimensions,omitempty"`
	Levels        int    `json:"levels,omitempty"`
	RetrainEpochs int    `json:"retrain_epochs,omitempty"`
	Seed          uint64 `json:"seed,omitempty"`

	// Backend selects the deployed representation: "" or "dense" keeps
	// the k class hypervectors; "loghd" compresses the freshly trained
	// model into log-compressed planes (ExtraPlanes redundancy planes on
	// top of ceil(log2 k)) before installing it.
	Backend     string `json:"backend,omitempty"`
	ExtraPlanes int    `json:"extra_planes,omitempty"`

	ProbeX [][]float64 `json:"probe_x,omitempty"`
	ProbeY []int       `json:"probe_y,omitempty"`
}

// Build validates the request and trains the system it describes.
// Training is expensive: callers run it outside any lock and install
// the finished system in one swap. The probe set is checked against
// the built system here, so a request whose probe ApplyProbe would
// refuse installs nothing. Every error wraps ErrBadInput — core.Train
// refuses shapes over the encoder's memory caps before allocating
// them.
func (req *TrainRequest) Build() (*core.System, error) {
	if len(req.X) == 0 || len(req.X) != len(req.Y) || req.Classes < 2 {
		return nil, fmt.Errorf("%w: need x, matching y, and classes >= 2", ErrBadInput)
	}
	cfg := core.Config{
		Dimensions:    req.Dimensions,
		Levels:        req.Levels,
		RetrainEpochs: req.RetrainEpochs,
		Seed:          req.Seed,
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadInput, err)
	}
	sys, err := core.Train(req.X, req.Y, req.Classes, cfg)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadInput, err)
	}
	switch req.Backend {
	case "", "dense":
	case "loghd":
		if sys, err = sys.CompressLogHD(req.ExtraPlanes); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadInput, err)
		}
	default:
		return nil, fmt.Errorf("%w: unknown backend %q (want dense or loghd)", ErrBadInput, req.Backend)
	}
	if err := checkProbe(req.ProbeX, req.ProbeY, sys.Features()); err != nil {
		return nil, err
	}
	return sys, nil
}

// ApplyProbe installs the request's held-out probe set on srv, if it
// carries one.
func (req *TrainRequest) ApplyProbe(srv *Server) error {
	if len(req.ProbeX) == 0 {
		return nil
	}
	return srv.SetProbe(req.ProbeX, req.ProbeY)
}

// trainRequest is /train's body. With Online set, the samples refine
// the live system in place through Server.RetrainOnline (RetrainEpochs
// mistake-driven epochs, default 1) instead of training a replacement;
// Classes/Dimensions/Levels/Seed/Backend are ignored — the live model's
// shape is authoritative.
type trainRequest struct {
	TrainRequest
	Online bool `json:"online,omitempty"`
}

func (s *Server) handleTrain(w http.ResponseWriter, r *http.Request) {
	var req trainRequest
	if err := httpjson.Decode(r, MaxBodyBytes, &req); err != nil {
		writeErr(w, fmt.Errorf("%w: %v", ErrBadInput, err))
		return
	}
	if req.Online {
		s.handleTrainOnline(w, &req)
		return
	}
	sys, err := req.Build()
	if err != nil {
		writeErr(w, err)
		return
	}
	if err := s.install(sys); err != nil {
		writeErr(w, err)
		return
	}
	if err := req.ApplyProbe(s); err != nil {
		writeErr(w, err)
		return
	}
	httpjson.Write(w, http.StatusOK, map[string]any{
		"classes":    sys.Classes(),
		"dimensions": sys.Dimensions(),
		"features":   sys.Features(),
		"backend":    sys.Backend(),
	})
}

// handleTrainOnline is /train's in-place refinement path.
func (s *Server) handleTrainOnline(w http.ResponseWriter, req *trainRequest) {
	// Check the probe first: a refused probe must not leave the
	// refinement applied.
	if sys := s.system(); sys != nil {
		if err := checkProbe(req.ProbeX, req.ProbeY, sys.Features()); err != nil {
			writeErr(w, err)
			return
		}
	}
	mistakes, err := s.RetrainOnline(req.X, req.Y, req.RetrainEpochs)
	if err != nil {
		writeErr(w, err)
		return
	}
	if err := req.ApplyProbe(s); err != nil {
		writeErr(w, err)
		return
	}
	sys := s.system()
	httpjson.Write(w, http.StatusOK, map[string]any{
		"online":         true,
		"final_mistakes": mistakes,
		"classes":        sys.Classes(),
		"dimensions":     sys.Dimensions(),
		"features":       sys.Features(),
	})
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	st := s.live.Load()
	if st == nil {
		writeErr(w, ErrNoModel)
		return
	}
	// Stamp the snapshot with the latest probe accuracy when one ran,
	// so a later /restore (or rollback) can verify the image was taken
	// while the model was still healthy.
	stamp := math.NaN()
	if s.metrics.probes.Load() > 0 {
		stamp = math.Float64frombits(s.metrics.probeAcc.Load())
	}
	s.writeSnapshot(w, st, stamp)
}

// anchor returns the journal's latest sealed root, which binds a
// snapshot to the healing history that produced it (nil without a
// journal or before its first seal).
func (s *Server) anchor() *core.JournalAnchor {
	if a, ok := s.cfg.Journal.Anchor(); ok {
		return &a
	}
	return nil
}

// save serializes the installed model: under the replica's read lock,
// so no writer tears the image (the lock-free read path is
// unaffected), or directly for a fleet's seed, which nothing writes.
func (st *liveState) save(w io.Writer, stamp float64, anchor *core.JournalAnchor) error {
	if st.rep != nil {
		return st.rep.Save(w, stamp, anchor)
	}
	return st.sys.SaveAnchored(w, stamp, anchor)
}

// writeSnapshot serializes the live model as a stamped, anchored
// binary checkpoint onto w.
func (s *Server) writeSnapshot(w http.ResponseWriter, st *liveState, stamp float64) {
	var buf bytes.Buffer
	if err := st.save(&buf, stamp, s.anchor()); err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", fmt.Sprint(buf.Len()))
	_, _ = w.Write(buf.Bytes())
}

// AdmitSnapshot loads a checkpoint (the /snapshot format) and applies
// the admission rules a server built from c enforces before installing
// one. Every error wraps ErrBadInput.
//
//   - Corrupted (CRC mismatch), truncated, or wrong-format snapshots
//     are the caller's fault, not the server's.
//   - A stamped snapshot whose held-out accuracy was already below the
//     checkpoint floor (Watchdog.MinCheckpointAccuracy) when it was
//     taken is not a restore target — it would install a degraded
//     model as "known good". Unstamped (NaN) snapshots carry no claim.
//   - An anchored snapshot claims descent from a sealed journal
//     lineage. When c has a journal, the claim must verify against it
//     — a snapshot anchored to a foreign or rewritten history is
//     refused. Unanchored snapshots (RHS2, or taken before the first
//     seal) carry no claim; without a journal none can be checked.
func (c Config) AdmitSnapshot(r io.Reader) (*core.System, float64, *core.JournalAnchor, error) {
	c.fillDefaults()
	sys, stamp, anchor, err := core.LoadAnchored(r)
	if err != nil {
		return nil, stamp, nil, fmt.Errorf("%w: %v", ErrBadInput, err)
	}
	if floor := c.Watchdog.MinCheckpointAccuracy; !math.IsNaN(stamp) && stamp < floor {
		return nil, stamp, nil, fmt.Errorf("%w: snapshot stamped at accuracy %.4f, below the %.4f checkpoint floor", ErrBadInput, stamp, floor)
	}
	if anchor != nil && c.Journal != nil {
		if err := c.Journal.VerifyAnchor(*anchor); err != nil {
			return nil, stamp, nil, fmt.Errorf("%w: %v", ErrBadInput, err)
		}
	}
	return sys, stamp, anchor, nil
}

func (s *Server) handleRestore(w http.ResponseWriter, r *http.Request) {
	sys, stamp, anchor, err := s.cfg.AdmitSnapshot(http.MaxBytesReader(nil, r.Body, MaxBodyBytes))
	if err != nil {
		writeErr(w, err)
		return
	}
	if err := s.install(sys); err != nil {
		writeErr(w, err)
		return
	}
	resp := map[string]any{
		"classes":    sys.Classes(),
		"dimensions": sys.Dimensions(),
		"features":   sys.Features(),
	}
	if !math.IsNaN(stamp) {
		resp["stamped_accuracy"] = stamp
	}
	if anchor != nil {
		resp["journal_anchor_seq"] = anchor.SealedSeq
	}
	httpjson.Write(w, http.StatusOK, resp)
}

// attackRequest injects a live fault drill.
type attackRequest struct {
	// Kind is "random", "targeted", or "burst".
	Kind string `json:"kind"`
	// Rate is the flipped fraction for random/targeted drills.
	Rate float64 `json:"rate,omitempty"`
	// SpanFrac and FlipProb parameterize burst drills.
	SpanFrac float64 `json:"span_frac,omitempty"`
	FlipProb float64 `json:"flip_prob,omitempty"`
	Seed     uint64  `json:"seed,omitempty"`
	// Replica targets one fleet member (fleet mode only, required
	// there — "attack the fleet" is not a physical operation; bit
	// flips land on one replica's memory).
	Replica *int `json:"replica,omitempty"`
}

func (s *Server) handleAttack(w http.ResponseWriter, r *http.Request) {
	var req attackRequest
	if err := httpjson.Decode(r, MaxBodyBytes, &req); err != nil {
		writeErr(w, fmt.Errorf("%w: %v", ErrBadInput, err))
		return
	}
	st := s.live.Load()
	if st == nil {
		writeErr(w, ErrNoModel)
		return
	}
	// The drill rewrites deployed memory: it runs as a replica write,
	// under the writer lock and followed by a full reimage publish (an
	// attack may touch any class).
	var res attack.Result
	drill := func(target *core.System) error {
		var err error
		switch req.Kind {
		case "random":
			res, err = target.AttackRandom(req.Rate, req.Seed)
		case "targeted":
			res, err = target.AttackTargeted(req.Rate, req.Seed)
		case "burst":
			res, err = target.AttackBurst(req.SpanFrac, req.FlipProb, req.Seed)
		default:
			err = fmt.Errorf("%w: unknown attack kind %q", ErrBadInput, req.Kind)
		}
		return err
	}
	var err error
	switch {
	case st.flt != nil && req.Replica == nil:
		writeErr(w, fmt.Errorf("%w: fleet mode: specify \"replica\" (0..%d)", ErrBadInput, st.flt.Size()-1))
		return
	case st.flt != nil:
		err = st.flt.WithReplica(*req.Replica, drill)
	case req.Replica != nil:
		writeErr(w, fmt.Errorf("%w: \"replica\" %d targets a fleet member, but this server runs a single model", ErrBadInput, *req.Replica))
		return
	default:
		err = st.rep.Mutate(drill)
	}
	if err != nil {
		if !errors.Is(err, ErrBadInput) {
			err = fmt.Errorf("%w: %v", ErrBadInput, err)
		}
		writeErr(w, err)
		return
	}
	s.metrics.recordAttack(res.BitsFlipped)
	resp := map[string]any{
		"kind":         req.Kind,
		"bits_flipped": res.BitsFlipped,
		"elements_hit": res.ElementsHit,
	}
	if req.Replica != nil {
		resp["replica"] = *req.Replica
	}
	httpjson.Write(w, http.StatusOK, resp)
}

// fleetResponse is the /fleet status document.
type fleetResponse struct {
	Enabled bool `json:"enabled"`
	// Replicas/Quorum echo the configuration; Status carries the live
	// per-replica and fleet-wide counters.
	Replicas int           `json:"replicas,omitempty"`
	Quorum   int           `json:"quorum,omitempty"`
	Status   *fleet.Status `json:"status,omitempty"`
}

func (s *Server) handleFleet(w http.ResponseWriter, r *http.Request) {
	flt := s.fleet()
	if flt == nil {
		httpjson.Write(w, http.StatusOK, fleetResponse{Enabled: false})
		return
	}
	st := flt.Status()
	httpjson.Write(w, http.StatusOK, fleetResponse{
		Enabled:  true,
		Replicas: flt.Size(),
		Quorum:   flt.Quorum(),
		Status:   &st,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	httpjson.Write(w, http.StatusOK, s.MetricsSnapshot())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !s.Ready() {
		httpjson.Write(w, http.StatusServiceUnavailable, map[string]string{"status": "no model"})
		return
	}
	httpjson.Write(w, http.StatusOK, map[string]string{"status": "ok"})
}
