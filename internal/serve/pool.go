package serve

import (
	"sync"
	"sync/atomic"
	"time"
)

// request is one in-flight prediction. resp is buffered (capacity 1)
// so batchers never block answering it.
type request struct {
	x    []float64
	resp chan result
}

type result struct {
	pred Prediction
	err  error
}

// pool is the sharded batching layer. Each shard owns a queue and a
// batcher goroutine; submissions round-robin across shards. Batching
// amortizes the per-request overhead into one EncodeAllParallel call
// and one model-epoch acquire; scoring takes no lock.
type pool struct {
	server *Server
	shards []chan *request
	// pending[i] counts shard i's submitted-but-not-yet-batched
	// requests. A batcher lingers for BatchWindow only while its count
	// is nonzero — when no submission is in flight, waiting cannot grow
	// the batch, so it flushes immediately (idle clients see compute
	// latency, not the batching window).
	pending []atomic.Int64
	next    atomic.Uint64

	// closing lets close() wait out in-flight submits before closing
	// the shard channels: submits hold it shared, close holds it
	// exclusively. "Send on closed channel" is otherwise racy here.
	closing sync.RWMutex
	closed  bool
	wg      sync.WaitGroup
}

func newPool(s *Server, shards, depth int) *pool {
	p := &pool{
		server:  s,
		shards:  make([]chan *request, shards),
		pending: make([]atomic.Int64, shards),
	}
	for i := range p.shards {
		p.shards[i] = make(chan *request, depth)
		p.wg.Add(1)
		go p.batcher(p.shards[i], &p.pending[i])
	}
	return p
}

// submit enqueues a request on the next shard, blocking when the
// shard's queue is full (backpressure). It returns ErrClosed once the
// pool is shutting down.
func (p *pool) submit(r *request) error {
	p.closing.RLock()
	defer p.closing.RUnlock()
	if p.closed {
		return ErrClosed
	}
	i := p.next.Add(1) % uint64(len(p.shards))
	p.pending[i].Add(1)
	p.shards[i] <- r
	return nil
}

// batcher accumulates requests into batches bounded by BatchSize and
// BatchWindow, serving each through Server.serveBatch. After close it
// drains its queue completely — every accepted request is answered.
// Each batcher owns one batchScratch, so the per-flush slice state is
// reused for the goroutine's lifetime instead of reallocated per batch.
//
// The window is adaptive: the batcher only arms the linger timer while
// the shard's pending count shows submissions still in flight. Once
// nothing is pending the batch cannot grow, so it is served at once —
// a lone client pays encode+score latency instead of BatchWindow.
func (p *pool) batcher(queue chan *request, pending *atomic.Int64) {
	defer p.wg.Done()
	cfg := &p.server.cfg
	scratch := newBatchScratch(cfg.BatchSize)
	batch := make([]*request, 0, cfg.BatchSize)
	timer := time.NewTimer(0)
	if !timer.Stop() {
		<-timer.C
	}
	for {
		// Block for the batch's first request.
		first, ok := <-queue
		if !ok {
			return
		}
		pending.Add(-1)
		batch = append(batch[:0], first)
		armed := false
	fill:
		for len(batch) < cfg.BatchSize {
			// Drain whatever is already queued without waiting.
			select {
			case r, ok := <-queue:
				if !ok {
					break fill
				}
				pending.Add(-1)
				batch = append(batch, r)
				continue
			default:
			}
			if pending.Load() == 0 {
				// Nobody is mid-submit: lingering cannot help.
				break fill
			}
			if !armed {
				timer.Reset(cfg.BatchWindow)
				armed = true
			}
			select {
			case r, ok := <-queue:
				if !ok {
					break fill
				}
				pending.Add(-1)
				batch = append(batch, r)
			case <-timer.C:
				armed = false
				break fill
			}
		}
		if armed && !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		p.server.serveBatch(batch, scratch)
	}
}

// close stops accepting submissions, lets the batchers drain, and
// waits for them to finish their final batches.
func (p *pool) close() {
	p.closing.Lock()
	if p.closed {
		p.closing.Unlock()
		return
	}
	p.closed = true
	p.closing.Unlock()
	for _, shard := range p.shards {
		close(shard)
	}
	p.wg.Wait()
}
