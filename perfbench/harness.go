package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/serve"
)

const (
	// clients is the closed-loop concurrency. Callers of the server wait
	// for their replies, so each client sends its next request only after
	// the previous answer is decoded. The server spreads each batch over
	// its own workers, so one client already keeps both vCPUs of the
	// reference box busy (1.9 CPUs on heal_dram); a second one only
	// queued behind it, and doubled the run-to-run spread of
	// latency_p50_ms there.
	clients = 1
	// warmupRequests run before any window is timed, so the encoder's
	// bound-pair cache and the pools are filled; live_heap_mb is read
	// after them.
	warmupRequests = 512
	// setupRepeats builds the stack this many times per run; setup_s is
	// their median, which keeps one slow start-up from deciding it.
	setupRepeats = 16
	// sliceLen cuts a timed window into equal parts; the bounded figures
	// are medians over them.
	sliceLen = time.Second
	// shadowEvery: in the traced run, every third request is
	// re-encoded and re-scored on a private fork to time those layers.
	shadowEvery = 3
	// parked is the period given to the program's own wall-clock loops
	// (scrub tickers). They never fire within a run: every fault and
	// sweep is scheduled by request index instead.
	parked = 1000 * time.Hour
)

type options struct {
	seed uint64
	// window is the measured duration; requests, when nonzero, bounds the
	// measured window by count instead.
	window   time.Duration
	requests int64
	warmup   int64
	setups   int
	trace    bool
	// layers lists the per-layer metrics a traced run reports.
	layers []layerMetric
	// recover turns the recovery loop on. The determinism test turns it
	// off, because its pseudo-label order follows goroutine scheduling;
	// --recovery 0 turns it off to show the accuracy floor bites.
	recover bool
}

// workload is one traffic mix against one deployment.
type workload struct {
	// prepare generates datasets, request bodies and the schedule from
	// the seed. It is not timed.
	prepare func(opts options) (plan, error)
	// margin is how far below the clean accuracy of the scheduled
	// samples served accuracy may fall before the run is incorrect.
	margin float64
}

var workloads = map[string]workload{
	"http_tenants": {prepare: prepareTenants, margin: 0.02},
	"heal_dram":    {prepare: prepareHeal, margin: healMargin},
	"fleet_sweep":  {prepare: prepareFleet, margin: fleetMargin},
}

// plan holds a workload's prepared inputs.
type plan interface {
	// setup builds a new serving stack, models included; its duration is one
	// setup_s sample. Steps are timed into st.
	setup(st *setupTimes) (stack, error)
	// scheduleHash digests the seeded request schedule.
	scheduleHash() uint64
}

// stack is a running deployment plus the client that drives it.
type stack interface {
	// cleanAccuracy is the accuracy of the untouched served models over
	// the scheduled samples, in schedule proportions. It is called once,
	// before any traffic, and then lets go of the models.
	cleanAccuracy() float64
	// tick runs the maintenance (faults, scrubs, sweeps) scheduled before
	// request i. Ticks run one at a time, in index order.
	tick(i int64, tr *tracer) error
	// do sends request i and checks its answer.
	do(i int64, tr *tracer) (preds, hits int, err error)
	// shadow re-times request i's encode and score on a private fork.
	shadow(i int64, tr *tracer)
	// counters snapshots the program's cumulative counters.
	counters() counters
	// gauges samples the epoch backlog and the recovery queue depth.
	gauges() (backlog, queued int64)
	close()
}

// setupTimes times the steps of one set-up and, when tracing, records
// each as a span named setup.<step>.
type setupTimes struct {
	tr                            *tracer
	rep                           int64
	last                          time.Time
	total, train, compress, start time.Duration
}

// lap closes the step that ran since the previous lap into d.
func (s *setupTimes) lap(step string, d *time.Duration) {
	now := time.Now()
	*d = now.Sub(s.last)
	s.tr.record("setup."+step, 0, 0, s.rep, s.last, now, 0)
	s.last = now
}

// counters maps per-layer counter names to cumulative values.
type counters map[string]float64

// foldServe adds one server's metrics document into c.
func foldServe(c counters, m serve.Metrics) {
	c["serve.predictions"] += float64(m.Predictions)
	c["serve.batches"] += float64(m.Batches)
	c["serve.trusted"] += float64(m.Trusted)
	c["serve.errors"] += float64(m.Errors)
	c["serve.recovery_dropped"] += float64(m.Recovery.Dropped)
	foldRecovery(c, m.Recovery.Stats.Queries, m.Recovery.Stats.ChunksChecked,
		m.Recovery.Stats.FaultyChunks, m.Recovery.Stats.BitsSubstituted)
	c["substrate.bits_flipped"] += float64(m.Substrate.BitsDecayed)
	c["substrate.recovery_writes"] += float64(m.Substrate.RecoveryWritesCharged)
	c["substrate.scrubs"] += float64(m.Substrate.Scrubs)
	if m.Epochs != nil {
		c["model.epochs_published"] += float64(m.Epochs.Published)
		c["model.epochs_recycled"] += float64(m.Epochs.Recycled)
	}
	if m.Model != nil {
		c["model.storage_bits"] += float64(m.Model.StorageBits)
	}
	if f := m.Fleet; f != nil {
		c["fleet.fast_predicts"] += float64(f.FastPredicts)
		c["fleet.quorum_predicts"] += float64(f.QuorumPredicts)
		c["fleet.escalations"] += float64(f.Escalations)
		c["fleet.sweeps"] += float64(f.Sweeps)
		c["fleet.repaired_chunks"] += float64(f.Repairs)
		c["fleet.repair_bits"] += float64(f.RepairBits)
		c["fleet.quarantines"] += float64(f.Quarantines)
		c["fleet.reseeds"] += float64(f.Reseeds)
		for _, r := range f.Replicas {
			c["substrate.bits_flipped"] += float64(r.FaultBits)
			if r.Recovery != nil {
				s := r.Recovery
				foldRecovery(c, s.Queries, s.ChunksChecked, s.FaultyChunks, s.BitsSubstituted)
				// The fleet bills each substitution to the replica's
				// substrate, as the single-model server does.
				c["substrate.recovery_writes"] += float64(s.BitsSubstituted)
			}
		}
	}
	if j := m.Journal; j != nil {
		c["fleet.journal_events"] += float64(j.Seq)
		c["fleet.journal_seals"] += float64(j.Seals)
		c["fleet.journal_errors"] += float64(j.Errors)
	}
}

func foldRecovery(c counters, queries, checked, faulty, bits int) {
	c["recovery.queries"] += float64(queries)
	c["recovery.chunks_checked"] += float64(checked)
	c["recovery.faulty_chunks"] += float64(faulty)
	c["recovery.bits_substituted"] += float64(bits)
}

// gaugesOf reads the epoch backlog and recovery queue depth of one
// server.
func gaugesOf(m serve.Metrics) (backlog, queued int64) {
	if m.Epochs != nil {
		backlog = m.Epochs.Backlog
	}
	return backlog, int64(m.Recovery.Queued)
}

// loadLoop runs closed-loop clients over a stack. Request indices are
// claimed under mu, and the maintenance scheduled at an index runs
// under the same lock, so faults and sweeps happen in index order
// whatever the interleaving of clients.
type loadLoop struct {
	st   stack
	mu   sync.Mutex
	next int64
}

// claim takes the next request index and runs its maintenance. ok is
// false once stop (an absolute index, or -1 for none) is reached.
func (d *loadLoop) claim(stop int64, tr *tracer) (i int64, ok bool, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if stop >= 0 && d.next >= stop {
		return 0, false, nil
	}
	i = d.next
	d.next++
	return i, true, d.st.tick(i, tr)
}

// window is what one measured stretch of closed-loop traffic saw.
type window struct {
	attempted, failed int64
	preds, hits       int64
	lat               []time.Duration // sorted
	// slices are the timed parts of the window, in order.
	slices     []slice
	elapsed    time.Duration
	backlogMax int64
	queueMax   int64
	err        error
}

// slice is one stretch of traffic run to its deadline and drained: the
// predictions answered in it, each request's latency, and its wall and
// process CPU time.
type slice struct {
	preds     int64
	lat       []time.Duration
	wall, cpu time.Duration
}

func (w *window) fail(err error) {
	w.failed++
	if w.err == nil {
		w.err = err
	}
}

// add folds the stretch o into w.
func (w *window) add(o window) {
	w.attempted += o.attempted
	w.failed += o.failed
	w.preds += o.preds
	w.hits += o.hits
	w.lat = append(w.lat, o.lat...)
	w.slices = append(w.slices, o.slices...)
	w.elapsed += o.elapsed
	w.backlogMax = max(w.backlogMax, o.backlogMax)
	w.queueMax = max(w.queueMax, o.queueMax)
	if w.err == nil {
		w.err = o.err
	}
}

// run drives the clients for n requests (n > 0) or for dur, whichever
// is set, and returns what they saw. A timed run is cut into slices of
// about sliceLen, each drained before the next starts. With a tracer,
// each request gets a client span and the gauges are sampled after it.
func (d *loadLoop) run(n int64, dur time.Duration, tr *tracer) window {
	if dur <= 0 {
		out := d.stretch(n, 0, tr)
		sort.Slice(out.lat, func(a, b int) bool { return out.lat[a] < out.lat[b] })
		return out
	}
	k := max(int64(dur/sliceLen), 1)
	var out window
	for s := int64(0); s < k; s++ {
		out.add(d.stretch(0, dur/time.Duration(k), tr))
	}
	sort.Slice(out.lat, func(a, b int) bool { return out.lat[a] < out.lat[b] })
	return out
}

// stretch runs the clients until n more requests were claimed (n > 0)
// or dur has passed, waits for every answer, and returns one slice.
func (d *loadLoop) stretch(n int64, dur time.Duration, tr *tracer) window {
	stop := int64(-1)
	if n > 0 {
		d.mu.Lock()
		stop = d.next + n
		d.mu.Unlock()
	}
	per := make([]window, clients)
	var wg sync.WaitGroup
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(dur)
	for c := range per {
		wg.Add(1)
		go func(w *window) {
			defer wg.Done()
			for dur <= 0 || time.Now().Before(deadline) {
				i, ok, err := d.claim(stop, tr)
				if !ok {
					return
				}
				w.attempted++
				if err != nil {
					w.fail(err)
					continue
				}
				t0 := time.Now()
				p, h, err := d.st.do(i, tr)
				t1 := time.Now()
				if err != nil {
					w.fail(fmt.Errorf("request %d: %w", i, err))
					continue
				}
				w.preds += int64(p)
				w.hits += int64(h)
				w.lat = append(w.lat, t1.Sub(t0))
				if tr != nil {
					tr.record("client.request", reqSpanID(i), 0, i, t0, t1, p)
					b, q := d.st.gauges()
					w.backlogMax = max(w.backlogMax, b)
					w.queueMax = max(w.queueMax, q)
					if i%shadowEvery == 0 {
						d.st.shadow(i, tr)
					}
				}
			}
		}(&per[c])
	}
	wg.Wait()
	var out window
	for _, w := range per {
		out.add(w)
	}
	out.elapsed = time.Since(start)
	out.slices = []slice{{preds: out.preds, lat: out.lat, wall: out.elapsed, cpu: cpuTime() - cpu0}}
	return out
}

// percentile returns the nearest-rank q-quantile of sorted latencies.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(k, 0), len(sorted)-1)]
}

func (w window) predsPerSec() float64 {
	return float64(w.preds) / w.elapsed.Seconds()
}

// sliced returns medians of the throughput, the latency p50 and p90 in
// ms and the CPU ms per 1,000 predictions over the slices of the window
// in which the process used the most CPU.
//
// Other tenants of the machine take CPU from the benchmark for seconds
// at a time. In those slices the process's CPU use falls with its
// throughput, so only the half of the slices with the highest CPU use
// count. A program that idles more does so in every slice and still
// shows; a stall confined to fewer than half the slices does not.
func (w window) sliced() (rate, p50, p90, cpuPerK float64) {
	type stats struct{ use, rate, p50, p90, cpuPerK float64 }
	var all []stats
	for _, s := range w.slices {
		if s.preds == 0 {
			continue
		}
		lat := append([]time.Duration(nil), s.lat...)
		sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
		all = append(all, stats{
			use:     float64(s.cpu) / float64(s.wall),
			rate:    float64(s.preds) / s.wall.Seconds(),
			p50:     ms(percentile(lat, 0.50)),
			p90:     ms(percentile(lat, 0.90)),
			cpuPerK: ms(s.cpu) / float64(s.preds) * 1000,
		})
	}
	sort.Slice(all, func(a, b int) bool { return all[a].use > all[b].use })
	all = all[:(len(all)+1)/2]
	var rates, p50s, p90s, cpus []float64
	for _, s := range all {
		rates = append(rates, s.rate)
		p50s = append(p50s, s.p50)
		p90s = append(p90s, s.p90)
		cpus = append(cpus, s.cpuPerK)
	}
	return median(rates), median(p50s), median(p90s), median(cpus)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type outcome struct {
	out     result
	tracer  *tracer
	problem string
	// accuracy states the served accuracy against its floor.
	accuracy string
	// counters and schedule are kept for the determinism test.
	counters counters
	schedule uint64
}

// run prepares, sets up (several times), warms up and measures one
// workload.
func run(w workload, opts options) (*outcome, error) {
	p, err := w.prepare(opts)
	if err != nil {
		return nil, err
	}
	// The prepared inputs stay live to the end; live_heap_mb counts only
	// what the program holds on top of them.
	heap0 := liveHeap()
	var tr *tracer
	if opts.trace {
		tr = newTracer()
	}
	// Half the set-ups run before the window and half after it, a run's
	// length apart, so one busy stretch of the machine cannot decide
	// setup_s.
	before := (max(opts.setups, 1) + 1) / 2
	var times []setupTimes
	st, err := setUp(p, before, 0, tr, &times)
	if err != nil {
		return nil, err
	}
	defer func() {
		if st != nil {
			st.close()
		}
	}()
	floor := st.cleanAccuracy() - w.margin

	d := &loadLoop{st: st}
	if opts.warmup > 0 {
		if wu := d.run(opts.warmup, 0, nil); wu.err != nil {
			return nil, fmt.Errorf("warm-up: %w", wu.err)
		}
	}
	// The heap is read after the fixed-length warm-up, not after the
	// timed window: the journal keeps proof material per event, so a
	// reading after the window would grow with throughput.
	heap := liveHeap() - heap0
	oc := &outcome{tracer: tr, schedule: p.scheduleHash()}
	var win, plain window
	var c0 counters
	if opts.trace {
		// The first half runs untraced, the second traced: the ratio of
		// their throughputs is the tracing overhead.
		plain = d.run(0, opts.window/2, nil)
		c0 = st.counters()
		win = d.run(0, opts.window/2, tr)
	} else {
		c0 = st.counters()
		win = d.run(opts.requests, opts.window, nil)
	}
	c1 := st.counters()
	oc.counters = c1
	rate, p50, p90, cpuPerK := win.sliced()
	st.close()
	st = nil
	after, err := setUp(p, opts.setups-before, before, tr, &times)
	if err != nil {
		return nil, err
	}
	if after != nil {
		after.close()
	}

	attempted, failed := win.attempted+plain.attempted, win.failed+plain.failed
	preds, hits := win.preds+plain.preds, win.hits+plain.hits
	acc := 0.0
	if preds > 0 {
		acc = float64(hits) / float64(preds)
	}
	oc.out = result{Correct: true, Attempted: max(attempted, 1), Failed: failed}
	oc.accuracy = fmt.Sprintf("served accuracy %.4f, floor %.4f", acc, floor)
	switch {
	case preds == 0:
		oc.out.Correct, oc.problem = false, "no predictions answered"
	case failed > 0:
		err := win.err
		if err == nil {
			err = plain.err
		}
		oc.out.Correct, oc.problem = false, fmt.Sprintf("%d of %d requests failed; first: %v", failed, attempted, err)
	case acc < floor:
		oc.out.Correct, oc.problem = false, fmt.Sprintf("served accuracy %.4f below floor %.4f", acc, floor)
	}
	if opts.trace {
		if oc.out.Metrics, err = layerMetrics(opts.layers, tr, delta(c0, c1), c1, win, plain, times); err != nil {
			return nil, err
		}
		return oc, nil
	}
	oc.out.Metrics = map[string]metric{
		"setup_s":          {medianOf(times, func(t setupTimes) time.Duration { return t.total }), "s"},
		"preds_per_s":      {rate, "1/s"},
		"latency_p50_ms":   {p50, "ms"},
		"latency_p90_ms":   {p90, "ms"},
		"cpu_ms_per_kpred": {cpuPerK, "ms"},
		"accuracy":         {acc, "fraction"},
		"live_heap_mb":     {heap / (1 << 20), "MB"},
	}
	return oc, nil
}

// setUp builds the stack n times, closing every build but the last,
// which it returns, and appends each build's times. Builds are numbered
// from k0.
func setUp(p plan, n, k0 int, tr *tracer, times *[]setupTimes) (stack, error) {
	var st stack
	for k := k0; k < k0+n; k++ {
		if st != nil {
			st.close()
		}
		runtime.GC()
		t0 := time.Now()
		// Set-up spans carry negative request ids: -1 for the first.
		tm := setupTimes{tr: tr, rep: -int64(k) - 1, last: t0}
		s, err := p.setup(&tm)
		tm.total = time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		st = s
		*times = append(*times, tm)
	}
	return st, nil
}

// liveHeap is the heap still reachable after a full collection, in
// bytes. The second collection frees what sync.Pools kept through the
// first.
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return float64(mem.HeapAlloc)
}

func delta(c0, c1 counters) counters {
	out := counters{}
	for k, v := range c1 {
		out[k] = v - c0[k]
	}
	return out
}

// medianOf is the median over set-ups of one step's time, in seconds.
func medianOf(ts []setupTimes, f func(setupTimes) time.Duration) float64 {
	xs := make([]float64, len(ts))
	for i, t := range ts {
		xs[i] = f(t).Seconds()
	}
	return median(xs)
}
