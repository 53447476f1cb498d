// Package registry is the multi-tenant layer over internal/serve: one
// HTTP process owning N independent serving stacks, keyed by model id.
// Each tenant is a full serve.Server — its own RCU epoch chain,
// recovery loop, substrate fault process, watchdog, and (optionally)
// replica fleet — so a bit-flip campaign, rollback, or retrain on one
// model cannot touch another's memory, locks, or batching queues.
//
// Dispatch: a request's model field selects its tenant by exact id,
// and the rows go to that tenant's server through its own round-robin
// batching dispatch (serve.Server.PredictMany), as they would on a
// single-model server; a single x is a one-row batch.
//
// Lifecycle: tenants are created from an uploaded stamped snapshot
// (dense RHDC or LogHD RHLG backend tags both install; a declared
// backend that contradicts the snapshot's tag is refused) or trained
// on the fly from inline data, and deleted with a graceful drain —
// the id disappears from dispatch first, in-flight requests finish,
// then the stack shuts down. All tenants may share one hash-chained
// journal: every event is stamped with its tenant's model id at the
// source (serve/fleet), so one tamper-evident log serves the whole
// process and replays per-tenant.
package registry

import (
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

// Errors surfaced by the registry.
var (
	// ErrUnknownModel reports a request naming a model id with no tenant.
	ErrUnknownModel = errors.New("registry: unknown model")
	// ErrModelExists reports a create colliding with a live tenant.
	ErrModelExists = errors.New("registry: model already exists")
	// ErrClosed reports a request after Close began.
	ErrClosed = errors.New("registry: closed")
	// ErrBadModelID reports an unusable model id.
	ErrBadModelID = errors.New("registry: bad model id")
	// ErrTooManyModels reports a create beyond MaxModels.
	ErrTooManyModels = errors.New("registry: model limit reached")
)

// MaxModelIDLen bounds model ids (they appear in URLs, journal lines,
// and metrics keys).
const MaxModelIDLen = 64

// MaxModels caps live tenants. Creates beyond it fail with
// ErrTooManyModels instead of exhausting process memory.
const MaxModels = 64

// Config parameterizes the registry.
type Config struct {
	// Serve is the per-tenant server template: every Create instantiates
	// a serve.Server from a copy of it, with ModelID overridden to the
	// tenant's id. The template's Journal (if any) is shared by all
	// tenants — events are source-stamped per tenant.
	Serve serve.Config
}

// tenant is one model's serving stack plus its dispatch state.
type tenant struct {
	id      string
	srv     *serve.Server
	created time.Time
	api     http.Handler // srv.Handler() under /models/{id}, built once

	// drainMu is the graceful-drain barrier: dispatches hold it shared
	// for the life of the request; Delete takes it exclusively, which
	// waits out every in-flight request before the stack shuts down.
	// (A WaitGroup cannot express this — Add racing Wait at zero is
	// undefined.) draining is read/written under drainMu.
	drainMu  sync.RWMutex
	draining bool

	dispatched atomic.Int64
}

// Registry owns the tenant map and its lifecycle.
type Registry struct {
	cfg Config

	// tenants is copy-on-write: dispatch loads the pointer lock-free;
	// Create/Delete rebuild the map under mu and swap it.
	tenants atomic.Pointer[map[string]*tenant]
	mu      sync.Mutex

	closed atomic.Bool

	// registry-level counters (per-tenant counters live on each
	// serve.Server's own metrics).
	dispatches   atomic.Int64
	unknownModel atomic.Int64
	creates      atomic.Int64
	deletes      atomic.Int64

	start time.Time
}

// New builds an empty registry; models arrive via Create or the
// /models HTTP surface.
func New(cfg Config) *Registry {
	r := &Registry{cfg: cfg, start: time.Now()}
	empty := map[string]*tenant{}
	r.tenants.Store(&empty)
	return r
}

// ValidateModelID rejects ids that cannot live in URLs, journal tags,
// and metrics keys: empty, overlong, or containing '/', whitespace, or
// control bytes.
func ValidateModelID(id string) error {
	if id == "" {
		return fmt.Errorf("%w: empty", ErrBadModelID)
	}
	if len(id) > MaxModelIDLen {
		return fmt.Errorf("%w: %q longer than %d bytes", ErrBadModelID, id, MaxModelIDLen)
	}
	if strings.ContainsAny(id, "/ \t\n\r") {
		return fmt.Errorf("%w: %q contains '/' or whitespace", ErrBadModelID, id)
	}
	for i := 0; i < len(id); i++ {
		if id[i] < 0x20 || id[i] == 0x7f {
			return fmt.Errorf("%w: %q contains control bytes", ErrBadModelID, id)
		}
	}
	return nil
}

// Create installs a new tenant serving sys under id. sys may be any
// backend (dense or LogHD); the tenant template's dense-only modes
// (fleet, node API) make serve.New refuse incompatible combinations.
func (r *Registry) Create(id string, sys *core.System) error {
	if err := ValidateModelID(id); err != nil {
		return err
	}
	if r.closed.Load() {
		return ErrClosed
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed.Load() {
		return ErrClosed
	}
	cur := *r.tenants.Load()
	if _, ok := cur[id]; ok {
		return fmt.Errorf("%w: %q", ErrModelExists, id)
	}
	if len(cur) >= MaxModels {
		return fmt.Errorf("%w: %d live models", ErrTooManyModels, len(cur))
	}
	cfg := r.cfg.Serve
	cfg.ModelID = id
	srv, err := serve.New(sys, cfg)
	if err != nil {
		return err
	}
	t := &tenant{id: id, srv: srv, created: time.Now(),
		api: http.StripPrefix("/models/"+id, srv.Handler())}
	next := make(map[string]*tenant, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	next[id] = t
	r.tenants.Store(&next)
	r.creates.Add(1)
	return nil
}

// Delete drains and removes a tenant: the id leaves the dispatch map
// first (new requests get ErrUnknownModel), requests already routed
// finish, then the serving stack shuts down — its pool answers every
// accepted prediction and the recovery backlog is applied, exactly the
// single-server Close contract.
func (r *Registry) Delete(id string) error {
	r.mu.Lock()
	cur := *r.tenants.Load()
	t, ok := cur[id]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownModel, id)
	}
	next := make(map[string]*tenant, len(cur)-1)
	for k, v := range cur {
		if k != id {
			next[k] = v
		}
	}
	r.tenants.Store(&next)
	r.deletes.Add(1)
	r.mu.Unlock()

	// Exclusive acquisition waits out every dispatch that entered before
	// the map swap; marking draining turns away any that raced the swap
	// and enters after.
	t.drainMu.Lock()
	t.draining = true
	t.drainMu.Unlock()
	t.srv.Close()
	return nil
}

// lookup resolves a model id to its live tenant.
func (r *Registry) lookup(id string) (*tenant, error) {
	if r.closed.Load() {
		return nil, ErrClosed
	}
	t, ok := (*r.tenants.Load())[id]
	if !ok {
		r.unknownModel.Add(1)
		return nil, fmt.Errorf("%w: %q", ErrUnknownModel, id)
	}
	return t, nil
}

// enter joins a request to the tenant's in-flight set, refusing when a
// drain already claimed it. The caller must call the returned leave.
func (t *tenant) enter() (leave func(), err error) {
	t.drainMu.RLock()
	if t.draining {
		t.drainMu.RUnlock()
		return nil, fmt.Errorf("%w: %q (draining)", ErrUnknownModel, t.id)
	}
	return t.drainMu.RUnlock, nil
}

// PredictMany routes a batch to model's tenant under its drain guard,
// spreading the samples over the tenant's batching shards through the
// server's own round-robin fan-out.
func (r *Registry) PredictMany(model string, xs [][]float64) ([]serve.Prediction, error) {
	t, err := r.lookup(model)
	if err != nil {
		return nil, err
	}
	leave, err := t.enter()
	if err != nil {
		return nil, err
	}
	defer leave()
	r.dispatches.Add(1)
	t.dispatched.Add(1)
	return t.srv.PredictMany(xs)
}

// Server exposes a tenant's serve.Server (nil error iff the id is
// live) for drills, probes, and the per-tenant HTTP passthrough.
func (r *Registry) Server(id string) (*serve.Server, error) {
	t, err := r.lookup(id)
	if err != nil {
		return nil, err
	}
	return t.srv, nil
}

// Models returns the live model ids, sorted.
func (r *Registry) Models() []string {
	cur := *r.tenants.Load()
	ids := make([]string, 0, len(cur))
	for id := range cur {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Len is the live tenant count.
func (r *Registry) Len() int { return len(*r.tenants.Load()) }

// TenantInfo is one tenant's row in the /models listing.
type TenantInfo struct {
	Model   string    `json:"model"`
	Backend string    `json:"backend,omitempty"`
	Ready   bool      `json:"ready"`
	Created time.Time `json:"created"`
	// Dispatched counts requests the registry routed to this tenant;
	// Predictions/Errors/Trusted are the tenant server's own counters.
	Dispatched  int64   `json:"dispatched"`
	Predictions int64   `json:"predictions"`
	Errors      int64   `json:"errors"`
	Trusted     int64   `json:"trusted"`
	Classes     int     `json:"classes,omitempty"`
	Dimensions  int     `json:"dimensions,omitempty"`
	Features    int     `json:"features,omitempty"`
	ProbeAcc    float64 `json:"probe_accuracy,omitempty"`
	Shards      int     `json:"shards"`
}

// List snapshots every live tenant's stats, sorted by id.
func (r *Registry) List() []TenantInfo {
	cur := *r.tenants.Load()
	out := make([]TenantInfo, 0, len(cur))
	for _, t := range cur {
		m := t.srv.MetricsSnapshot()
		info := TenantInfo{
			Model:       t.id,
			Ready:       m.Ready,
			Created:     t.created,
			Dispatched:  t.dispatched.Load(),
			Predictions: m.Predictions,
			Errors:      m.Errors,
			Trusted:     m.Trusted,
			Shards:      t.srv.Shards(),
		}
		if m.Model != nil {
			info.Backend = m.Model.Backend
			info.Classes = m.Model.Classes
			info.Dimensions = m.Model.Dimensions
			info.Features = m.Model.Features
		}
		if m.Probe.Runs > 0 {
			info.ProbeAcc = m.Probe.Accuracy
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Model < out[j].Model })
	return out
}

// Stats is the registry-level counter block in /metrics.
type Stats struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Models        int     `json:"models"`
	Dispatches    int64   `json:"dispatches"`
	UnknownModel  int64   `json:"unknown_model"`
	Creates       int64   `json:"creates"`
	Deletes       int64   `json:"deletes"`
}

// StatsSnapshot assembles the registry-level counters.
func (r *Registry) StatsSnapshot() Stats {
	return Stats{
		UptimeSeconds: time.Since(r.start).Seconds(),
		Models:        r.Len(),
		Dispatches:    r.dispatches.Load(),
		UnknownModel:  r.unknownModel.Load(),
		Creates:       r.creates.Load(),
		Deletes:       r.deletes.Load(),
	}
}

// Close drains and shuts down every tenant. Requests after Close
// return ErrClosed; Close is idempotent.
func (r *Registry) Close() {
	if !r.closed.CompareAndSwap(false, true) {
		return
	}
	r.mu.Lock()
	cur := *r.tenants.Load()
	empty := map[string]*tenant{}
	r.tenants.Store(&empty)
	r.mu.Unlock()
	for _, t := range cur {
		t.drainMu.Lock()
		t.draining = true
		t.drainMu.Unlock()
		t.srv.Close()
	}
}
