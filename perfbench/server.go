package main

import (
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/serve"
)

// serverPlan drives one in-process serve.Server with PredictMany
// batches: the heal_dram and fleet_sweep deployments.
type serverPlan struct {
	opts    options
	ds      *dataset.Dataset
	batches [][]int
	xs      [][][]float64
	// extra holds more seeded schedule (request indices) for the
	// schedule digest.
	extra [][]int
	// config returns a fresh server configuration and, when it journals,
	// the sink the journal writes to.
	config func() (serve.Config, *countingWriter)
	// tick runs the maintenance scheduled before request i.
	tick func(srv *serve.Server, i int64, tr *tracer) error
}

func newServerPlan(opts options, dsName, name string, schedule, batch int) (*serverPlan, error) {
	ds, err := loadDataset(dsName)
	if err != nil {
		return nil, err
	}
	p := &serverPlan{opts: opts, ds: ds}
	p.batches = drawBatches(rngFor(opts.seed, name+"/schedule"), schedule, batch, len(ds.TestX))
	for _, b := range p.batches {
		p.xs = append(p.xs, rows(ds.TestX, b))
	}
	return p, nil
}

func (p *serverPlan) scheduleHash() uint64 { return hashInts(p.batches, p.extra) }

func (p *serverPlan) setup(tm *setupTimes) (stack, error) {
	sys, err := train(p.ds, 1)
	if err != nil {
		return nil, err
	}
	tm.lap("train", &tm.train)
	cfg, sink := p.config()
	srv, err := serve.New(sys, cfg)
	if err != nil {
		return nil, err
	}
	tm.lap("start", &tm.start)
	s := &serverStack{plan: p, srv: srv, sink: sink, clean: sys}
	if p.opts.trace {
		s.shadowed = newShadow(sys)
	}
	return s, nil
}

type serverStack struct {
	plan     *serverPlan
	srv      *serve.Server
	sink     *countingWriter
	clean    *core.System // the served model, until cleanAccuracy
	shadowed *shadowModel // traced runs only
}

func (s *serverStack) cleanAccuracy() float64 {
	acc := scheduleAccuracy(correct(s.clean, s.plan.ds), s.plan.batches)
	s.clean = nil
	return acc
}

func (s *serverStack) tick(i int64, tr *tracer) error { return s.plan.tick(s.srv, i, tr) }

func (s *serverStack) do(i int64, tr *tracer) (int, int, error) {
	k := i % int64(len(s.plan.batches))
	xs := s.plan.xs[k]
	var preds []serve.Prediction
	var err error
	tr.time("serve.predict", reqSpanID(i), i, len(xs), func() { preds, err = s.srv.PredictMany(xs) })
	if err != nil {
		return 0, 0, err
	}
	hits, err := checkAnswer(preds, s.plan.batches[k], s.plan.ds.TestY, s.plan.ds.Spec.Classes)
	return len(xs), hits, err
}

func (s *serverStack) shadow(i int64, tr *tracer) {
	s.shadowed.run(tr, i, s.plan.xs[i%int64(len(s.plan.xs))])
}

func (s *serverStack) counters() counters {
	c := counters{}
	foldServe(c, s.srv.MetricsSnapshot())
	if s.sink != nil {
		c["fleet.journal_bytes"] = float64(s.sink.n.Load())
	}
	return c
}

func (s *serverStack) gauges() (backlog, queued int64) { return gaugesOf(s.srv.MetricsSnapshot()) }

func (s *serverStack) close() { s.srv.Close() }

// every reports whether maintenance with the given period falls before
// request i (never before the first).
func every(i, period int64) bool { return i > 0 && i%period == 0 }

// countingWriter is the journal's sink: it keeps only the byte count.
type countingWriter struct{ n atomic.Int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n.Add(int64(len(p)))
	return len(p), nil
}
