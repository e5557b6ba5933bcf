// Package par is the library's one worker runtime. Every fan-out — the
// sharded gossip step, the flood scan's batches and pull rounds, the
// scenario trials, the sweep jobs and the figure tables — runs its tasks on
// the calling goroutine plus GOMAXPROCS helper goroutines, started once on
// first use and parked for the life of the process.
//
// Each helper owns one token. A fan-out of k tasks takes as many free
// tokens as it can get without waiting, up to k-1, and hands task i to the
// i-th helper it took. The caller runs task 0; then every participant
// claims the tasks nobody took, in index order, from a shared counter. A
// fan-out that finds no free token (every helper busy, or a fan-out nested
// inside a helper's task) runs every task inline. A helper never blocks on anything
// but its job channel, so nested fan-outs cannot deadlock, and the process
// never runs more than GOMAXPROCS helpers however many callers fan out.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

var (
	startOnce sync.Once
	jobs      chan job     // one slot per helper: a send after take never blocks
	idle      atomic.Int32 // free tokens
)

// job hands task i of g to a helper.
type job struct {
	g *Group
	i int
}

// start launches the helpers. A token exists from the moment its helper is
// launched, so a job handed off while the helper is still starting waits in
// the channel instead of being dropped.
func start() {
	n := runtime.GOMAXPROCS(0)
	jobs = make(chan job, n)
	idle.Store(int32(n))
	for range n {
		go helper()
	}
}

func helper() {
	for j := range jobs {
		j.g.help(j.i)
	}
}

// Helpers returns the number of helper goroutines, starting them if they
// are not running yet: GOMAXPROCS at first use.
func Helpers() int {
	startOnce.Do(start)
	return cap(jobs)
}

// take claims up to want free tokens without waiting.
func take(want int) int {
	if want <= 0 {
		return 0
	}
	startOnce.Do(start)
	for {
		free := idle.Load()
		t := min(free, int32(want))
		if t <= 0 {
			return 0
		}
		if idle.CompareAndSwap(free, free-t) {
			return int(t)
		}
	}
}

// Tasks is the work of a fan-out: Task(i) runs task i.
type Tasks interface {
	Task(i int)
}

// taskFunc adapts a function to Tasks.
type taskFunc func(i int)

func (f taskFunc) Task(i int) { f(i) }

// Group is the reusable wait state of a fan-out. The zero Group is ready
// to use; keeping one, and a pointer-shaped Tasks, in a long-lived stepper
// makes each Run allocate nothing, which is what the per-round fan-outs
// need. A Group must not be copied after first use.
type Group struct {
	tasks    Tasks
	k        int32
	next     atomic.Int32 // next unclaimed task
	wg       sync.WaitGroup
	mu       sync.Mutex
	panicked any // first panic a helper recovered in this run
}

// Run runs tasks.Task(0), …, tasks.Task(k-1), each exactly once, and
// returns when all are done. At most width of them run at a time: the
// caller and up to width-1 helpers whose tokens were free. A panic in any
// task resurfaces on the caller once the helpers have stopped. Run must
// not be called concurrently on one Group.
func (g *Group) Run(tasks Tasks, k, width int) {
	g.tasks, g.k = tasks, int32(k)
	t := take(min(k, width) - 1)
	g.next.Store(int32(t + 1))
	if t == 0 {
		g.work(0)
		return
	}
	g.wg.Add(t)
	for i := 1; i <= t; i++ {
		jobs <- job{g, i}
	}
	// A woken helper waits in this P's next-to-run slot, which idle Ps are
	// slow to steal from, so a short task would often finish here before
	// the helper started and the run would go serial. Yielding starts the
	// helper on this P and lets an idle P take the caller from the global
	// run queue.
	runtime.Gosched()
	defer g.join()
	g.work(0)
}

// join waits for the run's helpers and re-raises the first panic, the
// caller's own before any helper's.
//
//gossip:allowpanic re-raise: a task's panic resurfaces on the caller, as if the task had run inline
func (g *Group) join() {
	p := recover()
	if p != nil {
		g.next.Store(g.k) // leave the rest unclaimed: the run is failing
	}
	g.wg.Wait()
	if p == nil {
		p = g.panicked
	}
	g.panicked = nil
	if p != nil {
		panic(p)
	}
}

// work runs task i, then claims and runs tasks until none is left.
func (g *Group) work(i int) {
	for ; i < int(g.k); i = int(g.next.Add(1)) - 1 {
		g.tasks.Task(i)
	}
}

// help is a helper's part of a run, from task i on. Its token goes back
// before the caller is released, so the caller's next run can hand off
// again.
func (g *Group) help(i int) {
	defer func() {
		if p := recover(); p != nil {
			g.mu.Lock()
			if g.panicked == nil {
				g.panicked = p
			}
			g.mu.Unlock()
			g.next.Store(g.k) // leave the rest unclaimed: the run is failing
		}
		idle.Add(1)
		g.wg.Done()
	}()
	g.work(i)
}

// Do runs task(0), …, task(k-1) like Group.Run, at most width at a time.
func Do(k, width int, task func(i int)) {
	if min(k, width) <= 1 {
		for i := range k {
			task(i)
		}
		return
	}
	new(Group).Run(taskFunc(task), k, width)
}
