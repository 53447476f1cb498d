package registry

import (
	"errors"
	"fmt"
	"net/http"

	"repro/internal/core"
	"repro/internal/httpjson"
	"repro/internal/serve"
)

// Handler returns the registry's HTTP API:
//
//	POST   /predict          {"model":"id","x":[...]} or {"xs":...}
//	GET    /models           list tenants with per-tenant stats
//	POST   /models           create a tenant by training on inline data
//	PUT    /models/{id}      create a tenant from a stamped snapshot
//	                         (octet-stream; ?backend= asserts the tag)
//	GET    /models/{id}      one tenant's stats row
//	DELETE /models/{id}      graceful drain and removal
//	ANY    /models/{id}/*    passthrough to the tenant's full serve API
//	                         (/metrics, /snapshot, /restore, /attack,
//	                         /train, /predict, /journal/*, /healthz)
//	GET    /metrics          registry counters + per-tenant sections
//	GET    /healthz          200 once any tenant serves, 503 empty
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /predict", r.handlePredict)
	mux.HandleFunc("GET /models", r.handleList)
	mux.HandleFunc("POST /models", r.handleCreateTrain)
	mux.HandleFunc("PUT /models/{id}", r.handleCreateSnapshot)
	mux.HandleFunc("GET /models/{id}", r.handleGet)
	mux.HandleFunc("DELETE /models/{id}", r.handleDelete)
	mux.HandleFunc("/models/{id}/", r.handleTenantPassthrough)
	mux.HandleFunc("GET /metrics", r.handleMetrics)
	mux.HandleFunc("GET /healthz", r.handleHealthz)
	return mux
}

// writeErr maps registry and serve errors onto HTTP statuses. Unknown
// model ids are 404 — the resource does not exist — while malformed
// requests (bad ids, bad payloads) are 400, duplicate creates 409, and
// the model cap 429.
func writeErr(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrUnknownModel):
		status = http.StatusNotFound
	case errors.Is(err, ErrBadModelID), errors.Is(err, serve.ErrBadInput):
		status = http.StatusBadRequest
	case errors.Is(err, ErrModelExists):
		status = http.StatusConflict
	case errors.Is(err, ErrTooManyModels):
		status = http.StatusTooManyRequests
	case errors.Is(err, ErrClosed), errors.Is(err, serve.ErrClosed), errors.Is(err, serve.ErrNoModel):
		status = http.StatusServiceUnavailable
	}
	httpjson.Write(w, status, map[string]string{"error": err.Error()})
}

// predictRequest is serve's wire format plus the tenant selector.
type predictRequest struct {
	Model string      `json:"model"`
	X     []float64   `json:"x,omitempty"`
	Xs    [][]float64 `json:"xs,omitempty"`
}

type predictResponse struct {
	Model       string             `json:"model"`
	Prediction  *serve.Prediction  `json:"prediction,omitempty"`
	Predictions []serve.Prediction `json:"predictions,omitempty"`
}

func (r *Registry) handlePredict(w http.ResponseWriter, req *http.Request) {
	var pr predictRequest
	if err := httpjson.DecodePredict(req, serve.MaxBodyBytes, &pr, httpjson.Fields{Model: &pr.Model, X: &pr.X, Xs: &pr.Xs}); err != nil {
		writeErr(w, fmt.Errorf("%w: %v", serve.ErrBadInput, err))
		return
	}
	if pr.Model == "" {
		writeErr(w, fmt.Errorf("%w: request names no model", serve.ErrBadInput))
		return
	}
	rows, single, err := httpjson.PredictRows(pr.X, pr.Xs)
	if err != nil {
		writeErr(w, fmt.Errorf("%w: %v", serve.ErrBadInput, err))
		return
	}
	preds, err := r.PredictMany(pr.Model, rows)
	if err != nil {
		writeErr(w, err)
		return
	}
	if single {
		httpjson.Write(w, http.StatusOK, predictResponse{Model: pr.Model, Prediction: &preds[0]})
		return
	}
	httpjson.Write(w, http.StatusOK, predictResponse{Model: pr.Model, Predictions: preds})
}

func (r *Registry) handleList(w http.ResponseWriter, req *http.Request) {
	httpjson.Write(w, http.StatusOK, map[string]any{
		"models":   r.List(),
		"registry": r.StatsSnapshot(),
	})
}

// createRequest trains a tenant on the fly: serve's fresh-train body
// plus the tenant id.
type createRequest struct {
	ID string `json:"id"`
	serve.TrainRequest
}

func (r *Registry) handleCreateTrain(w http.ResponseWriter, req *http.Request) {
	var cr createRequest
	if err := httpjson.Decode(req, serve.MaxBodyBytes, &cr); err != nil {
		writeErr(w, fmt.Errorf("%w: %v", serve.ErrBadInput, err))
		return
	}
	if err := ValidateModelID(cr.ID); err != nil {
		writeErr(w, err)
		return
	}
	sys, err := cr.Build()
	if err != nil {
		writeErr(w, err)
		return
	}
	if err := r.Create(cr.ID, sys); err != nil {
		writeErr(w, err)
		return
	}
	if srv, err := r.Server(cr.ID); err == nil {
		if err := cr.ApplyProbe(srv); err != nil {
			writeErr(w, err)
			return
		}
	}
	writeCreated(w, cr.ID, sys)
}

// handleCreateSnapshot creates a tenant from an uploaded stamped
// snapshot (the /snapshot wire format, dense RHDC or LogHD RHLG),
// admitted by the same rules as the tenant template's /restore: the
// checkpoint accuracy floor, and journal-anchor verification when the
// template has a journal. A ?backend=dense|loghd query parameter
// asserts the expected backend tag: a snapshot whose tag contradicts
// the declaration is refused with 400 — the wall that stops an
// operator installing a compressed image where the dense per-class
// layout was promised, or vice versa.
func (r *Registry) handleCreateSnapshot(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	if err := ValidateModelID(id); err != nil {
		writeErr(w, err)
		return
	}
	sys, _, _, err := r.cfg.Serve.AdmitSnapshot(http.MaxBytesReader(nil, req.Body, serve.MaxBodyBytes))
	if err != nil {
		writeErr(w, err)
		return
	}
	if want := req.URL.Query().Get("backend"); want != "" && want != sys.Backend() {
		writeErr(w, fmt.Errorf("%w: snapshot carries the %q backend tag but the request declared %q",
			serve.ErrBadInput, sys.Backend(), want))
		return
	}
	if err := r.Create(id, sys); err != nil {
		writeErr(w, err)
		return
	}
	writeCreated(w, id, sys)
}

// writeCreated answers a successful create with the tenant's shape.
func writeCreated(w http.ResponseWriter, id string, sys *core.System) {
	httpjson.Write(w, http.StatusCreated, map[string]any{
		"model":      id,
		"backend":    sys.Backend(),
		"classes":    sys.Classes(),
		"dimensions": sys.Dimensions(),
		"features":   sys.Features(),
	})
}

func (r *Registry) handleGet(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	if _, err := r.lookup(id); err != nil {
		writeErr(w, err)
		return
	}
	for _, info := range r.List() {
		if info.Model == id {
			httpjson.Write(w, http.StatusOK, info)
			return
		}
	}
	// Deleted between lookup and List — the 404 wall holds.
	writeErr(w, fmt.Errorf("%w: %q", ErrUnknownModel, id))
}

func (r *Registry) handleDelete(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	if err := r.Delete(id); err != nil {
		writeErr(w, err)
		return
	}
	httpjson.Write(w, http.StatusOK, map[string]any{"model": id, "deleted": true})
}

// handleTenantPassthrough forwards /models/{id}/* to the tenant's own
// serve mux with the prefix stripped, under the tenant's drain guard —
// the whole single-model API (per-tenant /metrics, /snapshot, /attack,
// online /train, /journal/proof, ...) works per tenant, and a tenant
// mid-drain answers 404 like any other unknown id.
func (r *Registry) handleTenantPassthrough(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	t, err := r.lookup(id)
	if err != nil {
		writeErr(w, err)
		return
	}
	leave, err := t.enter()
	if err != nil {
		writeErr(w, err)
		return
	}
	defer leave()
	prefix := "/models/" + id
	http.StripPrefix(prefix, t.srv.Handler()).ServeHTTP(w, req)
}

// MetricsDoc is the registry's /metrics document: the registry-level
// counters plus every tenant's full single-server metrics section.
type MetricsDoc struct {
	Registry Stats                    `json:"registry"`
	Models   map[string]serve.Metrics `json:"models"`
}

func (r *Registry) handleMetrics(w http.ResponseWriter, req *http.Request) {
	cur := *r.tenants.Load()
	doc := MetricsDoc{Registry: r.StatsSnapshot(), Models: make(map[string]serve.Metrics, len(cur))}
	for id, t := range cur {
		doc.Models[id] = t.srv.MetricsSnapshot()
	}
	httpjson.Write(w, http.StatusOK, doc)
}

func (r *Registry) handleHealthz(w http.ResponseWriter, req *http.Request) {
	ids := r.Models()
	ready := 0
	for _, id := range ids {
		if srv, err := r.Server(id); err == nil && srv.Ready() {
			ready++
		}
	}
	status := http.StatusOK
	if ready == 0 {
		status = http.StatusServiceUnavailable
	}
	httpjson.Write(w, status, map[string]any{
		"status": map[bool]string{true: "ok", false: "no models"}[ready > 0],
		"models": len(ids),
		"ready":  ready,
	})
}
