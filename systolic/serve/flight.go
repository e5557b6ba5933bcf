package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// group coalesces concurrent identical requests (singleflight with
// streaming and reference counting). The first subscriber to a key starts
// the computation; later subscribers attach to the same flight and replay
// everything it has produced so far, then follow it live. The computation's
// context is cancelled only when every subscriber has walked away, so one
// client disconnecting mid-stream never kills a result other clients are
// still waiting for — but an abandoned flight frees its worker promptly.
type group struct {
	mu      sync.Mutex
	flights map[string]*flight
	panics  *atomic.Int64 // counts computations that panicked
}

// errPanic is the terminal error of a computation that panicked: the
// panic is recovered on the goroutine that ran it, so one bad request
// answers 500 instead of killing the process.
var errPanic = errors.New("serve: internal error: computation panicked")

// recoverPanic, deferred by a computation's runner, turns a panic into an
// errPanic-wrapped *err and counts it.
func recoverPanic(panics *atomic.Int64, err *error) {
	if r := recover(); r != nil {
		panics.Add(1)
		*err = fmt.Errorf("%w: %v", errPanic, r)
	}
}

type flight struct {
	ctx    context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	refs     int
	subs     map[*subscriber]struct{}
	produced []any
	done     bool
	err      error
}

// subscriber receives the flight's output. ch carries every produced item
// (replayed from the start for late joiners) and is closed when the flight
// finishes; err is only meaningful after ch closes.
type subscriber struct {
	f    *flight
	ch   chan any
	once sync.Once
}

// join attaches to the flight for key, creating it if absent. capHint must
// be an upper bound on the number of items the computation emits (1 for
// single-value operations, the job count for sweeps); it sizes the
// subscriber channel so the producer never blocks. When created is true the
// caller must start exactly one computation via run.
func (g *group) join(parent context.Context, key string, capHint int) (sub *subscriber, f *flight, created bool) {
	g.mu.Lock()
	if g.flights == nil {
		g.flights = make(map[string]*flight)
	}
	f, ok := g.flights[key]
	if ok {
		// A flight whose last subscriber already left is doomed — its
		// context is cancelled and its compute is aborting. Attaching would
		// hand the new request a spurious cancellation error; replace it
		// instead (run only deletes the map entry if it still points at the
		// flight it ran, so the doomed flight cleans up after itself).
		f.mu.Lock()
		abandoned := !f.done && f.refs == 0 && f.ctx.Err() != nil
		f.mu.Unlock()
		if abandoned {
			ok = false
		}
	}
	if !ok {
		fctx, cancel := context.WithCancel(parent)
		f = &flight{cancel: cancel, subs: make(map[*subscriber]struct{})}
		f.ctx = fctx
		g.flights[key] = f
		created = true
	}
	g.mu.Unlock()

	f.mu.Lock()
	if f.done {
		// The flight finished between lookup and attach: replay and close
		// immediately rather than leaving the subscriber hanging.
		sub = &subscriber{f: f, ch: make(chan any, len(f.produced))}
		for _, v := range f.produced {
			sub.ch <- v
		}
		close(sub.ch)
		f.mu.Unlock()
		return sub, f, created
	}
	// Capacity covers the replayed prefix plus everything the computation
	// can still emit, so emit never blocks on this subscriber.
	sub = &subscriber{f: f, ch: make(chan any, len(f.produced)+capHint)}
	for _, v := range f.produced {
		sub.ch <- v
	}
	f.refs++
	f.subs[sub] = struct{}{}
	f.mu.Unlock()
	return sub, f, created
}

// run executes the computation for a flight the caller created: compute
// receives the flight's context and an emit callback, and its return error
// becomes the flight's terminal error; a panic becomes an errPanic. run
// removes the flight from the group before notifying subscribers, so a
// request arriving after the flight finished starts fresh (and will
// typically hit the result cache).
func (g *group) run(key string, f *flight, compute func(ctx context.Context, emit func(any)) error) {
	err := func() (err error) {
		defer recoverPanic(g.panics, &err)
		return compute(f.ctx, f.emit)
	}()

	g.mu.Lock()
	if g.flights[key] == f {
		delete(g.flights, key)
	}
	g.mu.Unlock()

	f.mu.Lock()
	f.done = true
	f.err = err
	for sub := range f.subs {
		close(sub.ch)
	}
	f.subs = nil
	f.mu.Unlock()
	f.cancel() // release the context's resources
}

// emit delivers one item to every current subscriber and records it for
// late joiners. Channel capacities are sized at join, so sends never block.
func (f *flight) emit(v any) {
	f.mu.Lock()
	f.produced = append(f.produced, v)
	for sub := range f.subs {
		sub.ch <- v
	}
	f.mu.Unlock()
}

// Err returns the flight's terminal error; call it only after the
// subscriber channel has closed.
func (f *flight) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// leave detaches the subscriber. When the last subscriber of an unfinished
// flight leaves, the computation's context is cancelled. leave is
// idempotent and safe to call after the flight finished.
func (s *subscriber) leave() {
	s.once.Do(func() {
		f := s.f
		f.mu.Lock()
		if _, attached := f.subs[s]; attached {
			delete(f.subs, s)
			f.refs--
			if f.refs == 0 && !f.done {
				f.cancel()
			}
		}
		f.mu.Unlock()
	})
}
