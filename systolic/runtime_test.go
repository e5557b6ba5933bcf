package systolic

import (
	"context"
	"encoding/json"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/par"
	"repro/internal/topology"
)

// saturatePar takes every worker-runtime token with a task that blocks
// until release is called, so every fan-out in between runs inline on its
// caller.
func saturatePar(t *testing.T) (release func()) {
	t.Helper()
	h := par.Helpers()
	started := make(chan struct{}, h+1)
	block := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		par.Do(h+1, h+1, func(int) {
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
	return func() {
		close(block)
		<-done
	}
}

// settledGoroutines waits up to two seconds for goroutines that are on
// their way out (a finished sweep's driver, test helpers) to exit, and
// returns the goroutine count once it is at most limit, or the last count.
func settledGoroutines(limit int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > limit && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(10 * time.Millisecond)
	}
	return n
}

// TestGoroutinesBounded: asking for 64 workers does not start 64
// goroutines. A sharded gossip session (hypercube d=11, n =
// DefaultShardThreshold) and a sharded one-source scan of the implicit
// hypercube d=20, both with WithWorkers(64), grow the goroutine count by at
// most the worker runtime's helpers (GOMAXPROCS), and running them again
// grows it by nothing.
func TestGoroutinesBounded(t *testing.T) {
	ctx := context.Background()
	sessNet, err := New("hypercube", Dimension(11))
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProtocol("periodic-full", sessNet, 0)
	if err != nil {
		t.Fatal(err)
	}
	dim := 20
	if testing.Short() {
		dim = 18 // still 64 chunks, so 64 shards
	}
	scanNet := PlainImplicit("hypercube", topology.NewHypercubeGen(dim), dim-1)
	run := func() {
		sess, err := NewEngine(sessNet, p, WithWorkers(64))
		if err != nil {
			t.Fatal(err)
		}
		if sess.st.Shards() != 64 {
			t.Fatalf("session steps %d shards, want 64", sess.st.Shards())
		}
		if _, err := sess.Run(ctx); err != nil {
			t.Fatal(err)
		}
		sess.Close()
		rep, err := AnalyzeBroadcastAll(ctx, scanNet, WithSources([]int{0}), WithWorkers(64))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Worst != dim {
			t.Fatalf("scan measured %d rounds, want %d", rep.Worst, dim)
		}
	}
	base := runtime.NumGoroutine()
	run()
	limit := base + runtime.GOMAXPROCS(0)
	first := settledGoroutines(limit)
	if first > limit {
		t.Fatalf("goroutines grew from %d to %d, more than GOMAXPROCS = %d", base, first, runtime.GOMAXPROCS(0))
	}
	run()
	if second := settledGoroutines(first); second > first {
		t.Fatalf("goroutines grew from %d to %d on the second run", first, second)
	}
}

// TestConcurrentCallersGoroutinePeak: eight concurrent callers at
// GOMAXPROCS=8, mixing sharded sessions, scans, scenario certifications
// and sweeps, never run more goroutines than the callers, the helpers and
// a constant: the sampler and the two sweeping callers' drivers, plus one.
// Each fan-out sizing itself used to add ~70 at this load.
func TestConcurrentCallersGoroutinePeak(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	const callers = 8
	iters := 3
	if testing.Short() {
		iters = 1
	}
	ctx := context.Background()
	hc, err := New("hypercube", Dimension(11))
	if err != nil {
		t.Fatal(err)
	}
	hcProto, err := NewProtocol("periodic-full", hc, 0)
	if err != nil {
		t.Fatal(err)
	}
	db, err := New("debruijn", Degree(2), Diameter(6))
	if err != nil {
		t.Fatal(err)
	}
	dbProto, err := NewProtocol("periodic-half", db, 0)
	if err != nil {
		t.Fatal(err)
	}
	jobs := []SweepJob{
		{Label: "hc11", Kind: "hypercube", Params: []Param{Dimension(11)}, Protocol: UseProtocol("periodic-full", 0)},
		{Label: "db6", Kind: "debruijn", Params: []Param{Degree(2), Diameter(6)}, Protocol: UseProtocol("periodic-half", 0)},
		{Label: "db5", Kind: "debruijn", Params: []Param{Degree(2), Diameter(5)}, Protocol: UseProtocol("periodic-half", 0)},
		{Label: "hc6", Kind: "hypercube", Params: []Param{Dimension(6)}, Protocol: UseProtocol("periodic-full", 0)},
	}
	call := func(kind int) error {
		switch kind {
		case 0:
			_, err := Analyze(ctx, hc, hcProto)
			return err
		case 1:
			_, err := AnalyzeBroadcastAll(ctx, hc)
			return err
		case 2:
			_, err := CertifyScenario(ctx, db, dbProto, &Scenario{Loss: 0.05, Seed: 3}, 32)
			return err
		default:
			res, err := Sweep(ctx, jobs)
			for _, r := range res {
				if err == nil {
					err = r.Err
				}
			}
			return err
		}
	}

	par.Helpers() // a process's first fan-out starts the helpers; count them in the base
	base := runtime.NumGoroutine()
	var peak atomic.Int64
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n := int64(runtime.NumGoroutine()); n > peak.Load() {
				peak.Store(n)
			}
			time.Sleep(20 * time.Microsecond)
		}
	}()
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for c := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range iters {
				if errs[c] = call(c % 4); errs[c] != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-sampled
	for c, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", c, err)
		}
	}
	if limit := int64(base + callers + 4); peak.Load() > limit {
		t.Fatalf("goroutines peaked at %d over a base of %d (with %d helpers running); want at most callers + 4 = %d",
			peak.Load(), base, par.Helpers(), limit)
	}
}

// TestSaturatedExecutorSameResults: with every worker-runtime token held by
// a blocked task, every fan-out runs inline, and nothing deadlocks —
// including a sweep job whose session shards inside the sweep's fan-out.
// Multi-batch and single-batch sharded scans, a sharded gossip session, a
// scenario certification and a sweep give byte-identical results for
// WithWorkers 1, 2 and 7, with the executor free or saturated.
func TestSaturatedExecutorSameResults(t *testing.T) {
	ctx := context.Background()
	hc, err := New("hypercube", Dimension(11))
	if err != nil {
		t.Fatal(err)
	}
	hcProto, err := NewProtocol("periodic-full", hc, 0)
	if err != nil {
		t.Fatal(err)
	}
	small, err := New("hypercube", Dimension(9)) // 8 batches of sources
	if err != nil {
		t.Fatal(err)
	}
	big, err := New("hypercube", Dimension(13)) // 2 chunks: a sharded batch
	if err != nil {
		t.Fatal(err)
	}
	imp := implicitView(big)
	db, err := New("debruijn", Degree(2), Diameter(6))
	if err != nil {
		t.Fatal(err)
	}
	dbProto, err := NewProtocol("periodic-half", db, 0)
	if err != nil {
		t.Fatal(err)
	}
	jobs := []SweepJob{
		{Label: "hc11", Kind: "hypercube", Params: []Param{Dimension(11)}, Protocol: UseProtocol("periodic-full", 0)},
		{Label: "db6", Kind: "debruijn", Params: []Param{Degree(2), Diameter(6)}, Protocol: UseProtocol("periodic-half", 0)},
		{Label: "torus", Kind: "torus", Params: []Param{Rows(4), Cols(6)}, Protocol: UseProtocol("periodic-full", 0)},
	}
	run := func(workers int) (string, error) {
		opts := []Option{WithWorkers(workers)}
		multi, err := AnalyzeBroadcastAll(ctx, small, opts...)
		if err != nil {
			return "", err
		}
		single, err := AnalyzeBroadcastAll(ctx, imp, WithSources([]int{5}), WithWorkers(workers))
		if err != nil {
			return "", err
		}
		sess, err := NewEngine(hc, hcProto, opts...)
		if err != nil {
			return "", err
		}
		rep, err := sess.Analyze(ctx)
		if err != nil {
			return "", err
		}
		cert, err := CertifyScenario(ctx, db, dbProto, &Scenario{Loss: 0.05, Seed: 7}, 32, opts...)
		if err != nil {
			return "", err
		}
		sweep, err := Sweep(ctx, jobs, opts...)
		if err != nil {
			return "", err
		}
		for _, r := range sweep {
			if r.Err != nil {
				return "", r.Err
			}
		}
		b, err := json.Marshal([]any{multi, single, rep, sess.Snapshot(), cert, sweep})
		return string(b), err
	}
	want, err := run(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, saturated := range []bool{false, true} {
		release := func() {}
		if saturated {
			release = saturatePar(t)
		}
		for _, workers := range []int{1, 2, 7} {
			type result struct {
				out string
				err error
			}
			ch := make(chan result, 1)
			go func() {
				out, err := run(workers)
				ch <- result{out, err}
			}()
			select {
			case r := <-ch:
				if r.err != nil {
					release()
					t.Fatalf("saturated=%v workers=%d: %v", saturated, workers, r.err)
				}
				if r.out != want {
					t.Errorf("saturated=%v workers=%d: results differ from the serial run", saturated, workers)
				}
			case <-time.After(2 * time.Minute):
				t.Fatalf("saturated=%v workers=%d: no result after 2 minutes (deadlock?)", saturated, workers)
			}
		}
		release()
	}
}
