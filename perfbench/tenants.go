package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/registry"
	"repro/internal/serve"
)

// http_tenants: two PAMAP tenants in a registry behind a loopback HTTP
// server, built as `servehd -models "alpha:PAMAP,beta:PAMAP:loghd"`
// builds them. At 75 features and k=5 encode plus score is ~10 µs per
// sample, so HTTP, JSON and dispatch dominate, and beta puts LogHD
// scoring on the served path.
const (
	tenantBatch    = 8   // samples per /predict body
	tenantSchedule = 512 // distinct pre-marshalled bodies, cycled
	// requestHeader carries the request index to the handler wrapper;
	// the program ignores it.
	requestHeader = "X-Bench-Request"
)

var tenantIDs = [2]string{"alpha", "beta"}

type tenantReq struct {
	tenant int
	idx    []int
	xs     [][]float64
	body   []byte
}

type tenantsPlan struct {
	opts    options
	ds      *dataset.Dataset
	batches [][]int
	sched   []tenantReq
}

func prepareTenants(opts options) (plan, error) {
	ds, err := loadDataset("PAMAP")
	if err != nil {
		return nil, err
	}
	p := &tenantsPlan{opts: opts, ds: ds}
	p.batches = drawBatches(rngFor(opts.seed, "http_tenants/schedule"), tenantSchedule, tenantBatch, len(ds.TestX))
	for i, b := range p.batches {
		t := 0
		if i%4 == 3 { // 3:1 alpha:beta
			t = 1
		}
		xs := rows(ds.TestX, b)
		body, err := json.Marshal(map[string]any{"model": tenantIDs[t], "xs": xs})
		if err != nil {
			return nil, err
		}
		p.sched = append(p.sched, tenantReq{tenant: t, idx: b, xs: xs, body: body})
	}
	return p, nil
}

func (p *tenantsPlan) scheduleHash() uint64 { return hashInts(p.batches) }

func (p *tenantsPlan) setup(tm *setupTimes) (stack, error) {
	alpha, err := train(p.ds, 1)
	if err != nil {
		return nil, err
	}
	dense, err := train(p.ds, 2)
	if err != nil {
		return nil, err
	}
	tm.lap("train", &tm.train)
	beta, err := dense.CompressLogHD(2)
	if err != nil {
		return nil, err
	}
	tm.lap("compress", &tm.compress)
	models := []*core.System{alpha, beta}
	reg, err := p.registry(models)
	if err != nil {
		return nil, err
	}
	s := &tenantsStack{plan: p, reg: reg, clean: models}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		reg.Close()
		return nil, err
	}
	s.srv = &http.Server{Handler: s.wrap(reg.Handler()), ReadHeaderTimeout: 10 * time.Second}
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(ln) }()
	tm.lap("start", &tm.start)

	s.url = "http://" + ln.Addr().String() + "/predict"
	s.transport = &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients, DisableCompression: true}
	s.client = &http.Client{Transport: s.transport}
	if p.opts.trace {
		s.shadows = [2]*shadowModel{newShadow(alpha), newShadow(beta)}
		// The handler calls Registry.PredictMany inside the program, so
		// the traced run times that call on a registry of private forks.
		if s.shadowReg, err = p.registry([]*core.System{alpha.Fork(), beta.Fork()}); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

// registry builds a registry serving models under tenantIDs.
func (p *tenantsPlan) registry(models []*core.System) (*registry.Registry, error) {
	reg := registry.New(registry.Config{Serve: serve.Config{
		RecoverySeed:    seedFor(p.opts.seed, "http_tenants/recovery"),
		DisableRecovery: !p.opts.recover,
	}})
	for t, sys := range models {
		if err := reg.Create(tenantIDs[t], sys); err != nil {
			reg.Close()
			return nil, err
		}
	}
	return reg, nil
}

type tenantsStack struct {
	plan      *tenantsPlan
	reg       *registry.Registry
	srv       *http.Server
	served    chan error
	url       string
	transport *http.Transport
	client    *http.Client
	clean     []*core.System     // the served models, until cleanAccuracy
	shadows   [2]*shadowModel    // traced runs only
	shadowReg *registry.Registry // traced runs only
	tr        atomic.Pointer[tracer]
	bytes     atomic.Int64 // request plus response body bytes
}

// wrap puts a span around the registry handler for requests that carry
// a request index.
func (s *tenantsStack) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := s.tr.Load()
		id := r.Header.Get(requestHeader)
		if tr == nil || id == "" {
			h.ServeHTTP(w, r)
			return
		}
		i, _ := strconv.ParseInt(id, 10, 64)
		start := time.Now()
		h.ServeHTTP(w, r)
		tr.record("http.handler", 0, reqSpanID(i), i, start, time.Now(), 0)
	})
}

func (s *tenantsStack) cleanAccuracy() float64 {
	right := [2][]bool{correct(s.clean[0], s.plan.ds), correct(s.clean[1], s.plan.ds)}
	s.clean = nil
	hit, n := 0, 0
	for _, q := range s.plan.sched {
		for _, j := range q.idx {
			if right[q.tenant][j] {
				hit++
			}
			n++
		}
	}
	return float64(hit) / float64(n)
}

func (s *tenantsStack) tick(int64, *tracer) error { return nil }

func (s *tenantsStack) do(i int64, tr *tracer) (int, int, error) {
	q := s.plan.sched[i%int64(len(s.plan.sched))]
	req, err := http.NewRequest(http.MethodPost, s.url, bytes.NewReader(q.body))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if tr != nil {
		s.tr.Store(tr)
		req.Header.Set(requestHeader, strconv.FormatInt(i, 10))
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, 0, fmt.Errorf("read answer: %w", err)
	}
	s.bytes.Add(int64(len(q.body) + len(body)))
	if resp.StatusCode != http.StatusOK {
		return 0, 0, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var ans struct {
		Model       string             `json:"model"`
		Predictions []serve.Prediction `json:"predictions"`
	}
	if err := json.Unmarshal(body, &ans); err != nil {
		return 0, 0, fmt.Errorf("malformed answer: %w", err)
	}
	if ans.Model != tenantIDs[q.tenant] {
		return 0, 0, fmt.Errorf("answer names model %q, want %q", ans.Model, tenantIDs[q.tenant])
	}
	hits, err := checkAnswer(ans.Predictions, q.idx, s.plan.ds.TestY, s.plan.ds.Spec.Classes)
	return len(q.idx), hits, err
}

func (s *tenantsStack) shadow(i int64, tr *tracer) {
	q := s.plan.sched[i%int64(len(s.plan.sched))]
	tr.time("serve.predict", reqSpanID(i), i, len(q.xs), func() { _, _ = s.shadowReg.PredictMany(tenantIDs[q.tenant], q.xs) })
	s.shadows[q.tenant].run(tr, i, q.xs)
}

func (s *tenantsStack) counters() counters {
	st := s.reg.StatsSnapshot()
	c := counters{
		"registry.dispatches":    float64(st.Dispatches),
		"registry.unknown_model": float64(st.UnknownModel),
		"http.bytes":             float64(s.bytes.Load()),
	}
	for _, id := range tenantIDs {
		if srv, err := s.reg.Server(id); err == nil {
			foldServe(c, srv.MetricsSnapshot())
		}
	}
	return c
}

func (s *tenantsStack) gauges() (backlog, queued int64) {
	for _, id := range tenantIDs {
		if srv, err := s.reg.Server(id); err == nil {
			b, q := gaugesOf(srv.MetricsSnapshot())
			backlog += b
			queued += q
		}
	}
	return backlog, queued
}

func (s *tenantsStack) close() {
	_ = s.srv.Close()
	<-s.served
	s.transport.CloseIdleConnections()
	s.reg.Close()
	if s.shadowReg != nil {
		s.shadowReg.Close()
	}
}
