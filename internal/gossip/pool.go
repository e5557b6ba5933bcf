package gossip

import "sync"

// Pool is a persistent worker pool that shards compiled rounds
// (State.StepProgram) across vertices. Each worker executes its share of
// the program's compile-time partition — an even cut of every round's
// sender copy-spans and receiver ops, bucketed by receiver on rounds with
// duplicate destinations — so every word of the state has exactly one
// writer per phase and the result is byte-identical to a serial
// StepProgram for any arc set, not just matchings.
//
// The workers are long-lived goroutines parked on per-worker channels;
// driving a round costs two wakeup/barrier cycles and no allocations.
// Close releases the goroutines; a closed pool must not be used again.
type Pool struct {
	workers int
	jobs    []chan poolJob
	wg      sync.WaitGroup

	// Last compiled program driven through the pool and its memoized shard
	// plan; a session steps one program at a time, so a single slot avoids
	// the partition lookup on every round.
	lastProg *Program
	lastPart *partition
}

type poolJob struct {
	st    *State
	prog  *Program
	part  *partition
	r     int32 // explicit compiled round index
	phase uint8 // 0: snapshot senders, 1: merge receivers
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
		job.st.shardCompiled(job.prog, job.part, int(job.r), job.phase, w)
		p.wg.Done()
	}
}

// stepProgram drives one compiled round through the pool: a snapshot
// phase, a barrier, a merge phase, a barrier. The barriers give every
// merge a happens-before edge on every snapshot, preserving
// beginning-of-round semantics. The shard plan comes from the program's
// compile-time partition (memoized per worker count), and the snapshot
// phase is skipped outright on rounds the compiler proved need no shadow
// copies (every matching and fully fused round) — one barrier per round
// instead of two.
func (p *Pool) stepProgram(st *State, pr *Program, r int) {
	if p.lastProg != pr {
		p.lastProg, p.lastPart = pr, pr.partition(p.workers)
	}
	part := p.lastPart
	phase := uint8(0)
	if pr.spanStart[r] == pr.spanStart[r+1] {
		phase = 1
	}
	for ; phase < 2; phase++ {
		p.wg.Add(p.workers)
		for _, ch := range p.jobs {
			ch <- poolJob{st: st, prog: pr, part: part, r: int32(r), phase: phase}
		}
		p.wg.Wait()
	}
}
