package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// maxSpans bounds the spans kept for the trace file; aggregates keep
// counting past it.
const maxSpans = 200_000

// span is one timed call at a layer boundary. Spans of one request
// share Req; Parent links a span to the span that caused it.
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type agg struct {
	total time.Duration
	calls int64
	items int64
}

// tracer keeps spans in memory, timed from outside around each layer's
// public calls, and writes them out when the run ends. Methods on a nil
// tracer do nothing.
type tracer struct {
	epoch   time.Time
	ids     atomic.Uint64
	mu      sync.Mutex
	spans   []span
	dropped int64
	aggs    map[string]*agg
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now(), aggs: map[string]*agg{}}
	t.ids.Store(1 << 40) // above every request span id
	return t
}

// reqSpanID is the id of request i's client span, so spans recorded on
// the server side can name it as their parent.
func reqSpanID(i int64) uint64 { return uint64(i) + 1 }

// record stores a span covering items units of work (samples) and
// returns its id; id 0 allocates one.
func (t *tracer) record(name string, id, parent uint64, req int64, start, end time.Time, items int) uint64 {
	if t == nil {
		return 0
	}
	if id == 0 {
		id = t.ids.Add(1)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.aggs[name]
	if a == nil {
		a = &agg{}
		t.aggs[name] = a
	}
	a.total += end.Sub(start)
	a.calls++
	a.items += int64(items)
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Req: req,
			Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	} else {
		t.dropped++
	}
	return id
}

// time runs fn inside a span.
func (t *tracer) time(name string, parent uint64, req int64, items int, fn func()) {
	if t == nil {
		fn()
		return
	}
	start := time.Now()
	fn()
	t.record(name, 0, parent, req, start, time.Now(), items)
}

// perCall is the mean span duration of name in µs (0 when absent).
func (t *tracer) perCall(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if a := t.aggs[name]; a != nil && a.calls > 0 {
		return us(a.total) / float64(a.calls)
	}
	return 0
}

// perItem is the span time of names per unit of work in µs.
func (t *tracer) perItem(names ...string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum agg
	for _, n := range names {
		if a := t.aggs[n]; a != nil {
			sum.total += a.total
			sum.items += a.items
		}
	}
	if sum.items > 0 {
		return us(sum.total) / float64(sum.items)
	}
	return 0
}

// itemsPerCall is the mean work per span of name.
func (t *tracer) itemsPerCall(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if a := t.aggs[name]; a != nil && a.calls > 0 {
		return float64(a.items) / float64(a.calls)
	}
	return 0
}

// write saves the run context, the per-layer metrics and the spans.
func (t *tracer) write(path string, ctx map[string]any, metrics map[string]metric) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	b, err := json.Marshal(map[string]any{"context": ctx, "metrics": metrics, "spans": t.spans, "dropped": t.dropped})
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// layerMetric is one entry of the per_layer list in BENCHMARK.json, the
// one place the per-layer metrics are named with their units.
type layerMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// readPerLayer reads the per_layer list of the benchmark manifest.
func readPerLayer(path string) ([]layerMetric, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		PerLayer []layerMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(doc.PerLayer) == 0 {
		return nil, fmt.Errorf("%s: no per_layer metrics", path)
	}
	return doc.PerLayer, nil
}

// layerMetrics derives the listed per-layer metrics of a traced run from
// its spans, the counter deltas d over the traced window, the counters
// c1 at its end, the traced window win and the untraced window plain.
func layerMetrics(list []layerMetric, tr *tracer, d, c1 counters, win, plain window, times []setupTimes) (map[string]metric, error) {
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	roundtrip, handler := tr.perCall("client.request"), tr.perCall("http.handler")
	predict := tr.perCall("serve.predict")
	encode := tr.perItem("shadow.encode")
	score := tr.perItem("shadow.score")
	logScore := tr.perItem("shadow.loghd_score")
	v := map[string]float64{
		"registry.dispatches":             d["registry.dispatches"],
		"registry.unknown_model":          d["registry.unknown_model"],
		"http.bytes_per_pred":             ratio(d["http.bytes"], d["serve.predictions"]),
		"serve.predict_us":                predict,
		"serve.batch_fill":                ratio(d["serve.predictions"], d["serve.batches"]),
		"serve.batches":                   d["serve.batches"],
		"serve.trusted_share":             ratio(d["serve.trusted"], d["serve.predictions"]),
		"serve.errors":                    d["serve.errors"],
		"encoding.us_per_sample":          encode,
		"encoding.samples":                d["serve.predictions"],
		"model.score_us_per_sample":       score,
		"model.loghd_score_us_per_sample": logScore,
		"model.epochs_published":          d["model.epochs_published"],
		"model.epochs_recycled":           d["model.epochs_recycled"],
		"model.epoch_backlog_max":         float64(win.backlogMax),
		"model.storage_bits":              c1["model.storage_bits"],
		"recovery.queries":                d["recovery.queries"],
		"recovery.chunks_checked":         d["recovery.chunks_checked"],
		"recovery.faulty_chunks":          d["recovery.faulty_chunks"],
		"recovery.flag_rate":              ratio(d["recovery.faulty_chunks"], d["recovery.chunks_checked"]),
		"recovery.bits_substituted":       d["recovery.bits_substituted"],
		"serve.recovery_queue_max":        float64(win.queueMax),
		"serve.recovery_dropped":          d["serve.recovery_dropped"],
		"substrate.scrub_us":              tr.perCall("substrate.scrub"),
		"substrate.bits_flipped":          d["substrate.bits_flipped"],
		"substrate.recovery_writes":       d["substrate.recovery_writes"],
		"fleet.advance_us":                tr.perCall("fleet.advance"),
		"fleet.fast_share":                ratio(d["fleet.fast_predicts"], d["fleet.fast_predicts"]+d["fleet.quorum_predicts"]),
		"fleet.quorum_predicts":           d["fleet.quorum_predicts"],
		"fleet.escalations":               d["fleet.escalations"],
		"fleet.sweep_us":                  tr.perCall("fleet.sweep"),
		"fleet.repaired_chunks":           d["fleet.repaired_chunks"],
		"fleet.repair_bits":               d["fleet.repair_bits"],
		"fleet.quarantines":               d["fleet.quarantines"],
		"fleet.reseeds":                   d["fleet.reseeds"],
		"fleet.journal_events":            d["fleet.journal_events"],
		"fleet.journal_seals":             d["fleet.journal_seals"],
		"fleet.journal_bytes":             d["fleet.journal_bytes"],
		"fleet.journal_errors":            d["fleet.journal_errors"],
		"core.train_s":                    medianOf(times, func(t setupTimes) time.Duration { return t.train }),
		"core.compress_s":                 medianOf(times, func(t setupTimes) time.Duration { return t.compress }),
		"serve.start_s":                   medianOf(times, func(t setupTimes) time.Duration { return t.start }),
		"client.latency_p99_ms":           ms(percentile(plain.lat, 0.99)),
		"client.latency_max_ms":           ms(percentile(plain.lat, 1)),
		"client.latency_samples":          float64(len(plain.lat)),
		"trace.preds_per_s":               win.predsPerSec(),
		"trace.untraced_preds_per_s":      plain.predsPerSec(),
		"trace.overhead_share":            1 - ratio(win.predsPerSec(), plain.predsPerSec()),
		"http.roundtrip_us":               0,
		"http.handler_us":                 0,
		"http.wire_us":                    0,
		"serve.overhead_us":               0,
	}
	if handler > 0 {
		// Only the HTTP workload has a front end: the client span is the
		// round trip, and what the handler does not cover is the wire.
		v["http.roundtrip_us"] = roundtrip
		v["http.handler_us"] = handler
		v["http.wire_us"] = roundtrip - handler
	}
	if predict > 0 {
		// What one predict call spends outside encode and score is the
		// batching pool's share: queueing, fan-out and collection.
		samples := tr.itemsPerCall("serve.predict")
		v["serve.overhead_us"] = predict - (encode+tr.perItem("shadow.score", "shadow.loghd_score"))*samples
	}
	out := map[string]metric{}
	for _, m := range list {
		x, ok := v[m.Name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %q is not measured", m.Name)
		}
		out[m.Name] = metric{Value: x, Unit: m.Unit}
	}
	return out, nil
}
