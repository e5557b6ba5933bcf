package gossip

import (
	"sync"
	"sync/atomic"
)

// Pool is a persistent worker pool that shards compiled rounds
// (State.StepProgram) across workers. Worker w of W runs share w of the
// round — the w-th contiguous cut of its fused ops and of its arcs — in
// the same merge loop as the serial step. No two ops of a compiled round
// share a vertex, so every state word and counts entry has a single
// writer and the result is byte-identical to a serial StepProgram.
//
// The workers are long-lived goroutines parked on per-worker channels;
// driving a round costs one wakeup/barrier cycle and no allocations.
// Close releases the goroutines; a closed pool must not be used again.
type Pool struct {
	workers int
	jobs    []chan poolJob
	wg      sync.WaitGroup
}

type poolJob struct {
	st   *State
	prog *Program
	r    int32 // explicit compiled round index
}

// NewPool starts a pool of workers long-lived stepping goroutines.
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{workers: workers, jobs: make([]chan poolJob, workers)}
	for w := range p.jobs {
		ch := make(chan poolJob, 1)
		p.jobs[w] = ch
		go p.worker(w, ch)
	}
	return p
}

// Workers returns the pool size.
func (p *Pool) Workers() int { return p.workers }

// Close shuts the worker goroutines down. It must not be called while a
// round is in flight.
func (p *Pool) Close() {
	for _, ch := range p.jobs {
		close(ch)
	}
}

func (p *Pool) worker(w int, ch chan poolJob) {
	for job := range ch {
		gained, newlyFull := job.st.merge(job.prog, int(job.r), w, p.workers, nil)
		if gained != 0 {
			atomic.AddInt64(&job.st.know, gained)
			atomic.AddInt64(&job.st.full, newlyFull)
		}
		p.wg.Done()
	}
}

// stepProgram drives one compiled round through the pool behind a single
// barrier.
func (p *Pool) stepProgram(st *State, pr *Program, r int) {
	p.wg.Add(p.workers)
	for _, ch := range p.jobs {
		ch <- poolJob{st: st, prog: pr, r: int32(r)}
	}
	p.wg.Wait()
}
