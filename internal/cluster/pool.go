package cluster

import (
	"sync"
	"sync/atomic"
)

// pool is the engine's persistent worker goroutine pool. It replaces the
// per-round goroutine spawns of the original engine: the goroutines are
// started once at engine construction and fed one job per protocol phase
// (compute, vote, chunked aggregation), so the steady-state round
// allocates no goroutine stacks and pays no spawn latency.
//
// Jobs are index batches: run(n, fn) invokes fn(worker, task) for every
// task in [0, n), where worker identifies the executing pool goroutine
// (in [0, size)) so callers can address per-goroutine scratch without
// synchronization. Tasks are claimed from a shared atomic counter, which
// keeps the pool balanced when task costs are uneven (e.g. Byzantine
// workers drop out of the compute phase).
//
// The pool owns the one job every phase reuses, so a phase allocates
// nothing: run is called only from the round goroutine and returns after
// every pool goroutine has finished with the job, and the channel send
// that hands the job out orders the next phase's writes before any
// goroutine reads them.
type pool struct {
	size int
	jobs chan *poolJob
	job  poolJob
	wg   sync.WaitGroup
}

// poolJob is one index batch dispatched to every pool goroutine.
type poolJob struct {
	n    int
	next atomic.Int64
	fn   func(worker, task int)
	done sync.WaitGroup
}

// newPool starts size goroutines. size must be >= 1.
func newPool(size int) *pool {
	p := &pool{size: size, jobs: make(chan *poolJob)}
	p.wg.Add(size)
	for w := 0; w < size; w++ {
		go p.loop(w)
	}
	return p
}

// loop claims tasks from each received job until the jobs channel
// closes.
func (p *pool) loop(worker int) {
	defer p.wg.Done()
	for j := range p.jobs {
		for {
			t := int(j.next.Add(1)) - 1
			if t >= j.n {
				break
			}
			j.fn(worker, t)
		}
		j.done.Done()
	}
}

// run executes fn(worker, task) for every task in [0, n) across the pool
// and returns when all tasks completed. fn must be safe for concurrent
// invocation on distinct tasks.
func (p *pool) run(n int, fn func(worker, task int)) {
	if n <= 0 {
		return
	}
	j := &p.job
	j.n, j.fn = n, fn
	j.next.Store(0)
	j.done.Add(p.size)
	for i := 0; i < p.size; i++ {
		p.jobs <- j
	}
	j.done.Wait()
}

// close terminates the pool goroutines and waits for them to exit. The
// pool must be idle (no run in flight).
func (p *pool) close() {
	close(p.jobs)
	p.wg.Wait()
}
