package par

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// saturate takes every token with a task that blocks until release is
// called, so every fan-out in between runs inline on its caller.
func saturate(t *testing.T) (release func()) {
	t.Helper()
	h := Helpers()
	started := make(chan struct{}, h+1)
	block := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		Do(h+1, h+1, func(int) {
			started <- struct{}{}
			<-block
		})
	}()
	for range h + 1 {
		select {
		case <-started:
		case <-time.After(10 * time.Second):
			close(block)
			t.Fatalf("saturating fan-out never reached all %d helpers", h)
		}
	}
	if free := idle.Load(); free != 0 {
		close(block)
		t.Fatalf("%d tokens free with every helper blocked", free)
	}
	return func() {
		close(block)
		<-done
	}
}

// TestDoRunsEveryTaskOnce: every task of a fan-out runs exactly once, for
// any width, with the executor free or saturated, and the tokens are all
// back afterwards.
func TestDoRunsEveryTaskOnce(t *testing.T) {
	check := func(label string) {
		for _, k := range []int{0, 1, 2, 3, 7, 64, 1000} {
			for _, width := range []int{0, 1, 2, 7, 64} {
				counts := make([]atomic.Int32, k)
				Do(k, width, func(i int) { counts[i].Add(1) })
				for i := range counts {
					if c := counts[i].Load(); c != 1 {
						t.Fatalf("%s k=%d width=%d: task %d ran %d times", label, k, width, i, c)
					}
				}
			}
		}
	}
	check("free")
	if free := idle.Load(); int(free) != Helpers() {
		t.Fatalf("%d of %d tokens free after the fan-outs", free, Helpers())
	}
	release := saturate(t)
	check("saturated")
	release()
}

// TestWidthCapsConcurrency: no more than width tasks of one fan-out run at
// a time.
func TestWidthCapsConcurrency(t *testing.T) {
	for _, width := range []int{1, 2, 3} {
		var running, peak atomic.Int32
		Do(64, width, func(int) {
			r := running.Add(1)
			for p := peak.Load(); r > p && !peak.CompareAndSwap(p, r); p = peak.Load() {
			}
			time.Sleep(50 * time.Microsecond)
			running.Add(-1)
		})
		if p := peak.Load(); int(p) > width {
			t.Errorf("width %d: %d tasks ran at once", width, p)
		}
	}
}

// TestHandoffReachesHelper: a task handed off runs on a helper even when
// the caller's own task waits for it — also on the first fan-out of the
// process, while the helpers are still starting. A lost or serialised
// handoff deadlocks here.
func TestHandoffReachesHelper(t *testing.T) {
	if Helpers() < 1 {
		t.Skip("no helpers")
	}
	ran := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		Do(2, 2, func(i int) {
			if i == 1 {
				close(ran)
				return
			}
			<-ran
		})
	}()
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Fatal("task 1 never ran beside task 0")
	}
}

// TestNestedFanOutNoDeadlock: fan-outs nested inside helper tasks, three
// levels deep, complete and run every task once, whether tokens are free
// or all taken.
func TestNestedFanOutNoDeadlock(t *testing.T) {
	for _, sat := range []bool{false, true} {
		var release func()
		if sat {
			release = saturate(t)
		}
		var total atomic.Int64
		Do(8, 8, func(int) {
			Do(8, 8, func(int) {
				Do(8, 8, func(int) { total.Add(1) })
			})
		})
		if release != nil {
			release()
		}
		if got := total.Load(); got != 512 {
			t.Fatalf("saturated=%v: %d leaf tasks ran, want 512", sat, got)
		}
	}
}

// TestPanicResurfacesOnCaller: a task that panics on a helper fails the
// fan-out on its caller, where a recover can catch it, and the helper
// survives to take the next job.
func TestPanicResurfacesOnCaller(t *testing.T) {
	for _, boom := range []int{0, 1, 5} {
		got := func() (p any) {
			defer func() { p = recover() }()
			Do(8, 8, func(i int) {
				if i == boom {
					panic(fmt.Sprintf("task %d", i))
				}
				time.Sleep(time.Millisecond)
			})
			return nil
		}()
		if want := fmt.Sprintf("task %d", boom); got != want {
			t.Fatalf("recovered %v, want %q", got, want)
		}
	}
	var n atomic.Int32
	Do(16, 16, func(int) { n.Add(1) })
	if n.Load() != 16 {
		t.Fatalf("fan-out after a panic ran %d of 16 tasks", n.Load())
	}
	if free := idle.Load(); int(free) != Helpers() {
		t.Fatalf("%d of %d tokens free after the panics", free, Helpers())
	}
}
