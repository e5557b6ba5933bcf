package systolic

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/par"
)

// SweepJob is one cell of a sweep grid: a topology instance (kind + named
// parameters) and the protocol to analyze on it.
type SweepJob struct {
	// Label tags the job in results and displays.
	Label string
	// Kind and Params instantiate the network through the registry.
	Kind   string
	Params []Param
	// Protocol builds the protocol to analyze on the instantiated network
	// (see UseProtocol for catalog protocols).
	Protocol ProtocolBuilder
}

// SweepResult is the outcome of one job. Exactly one of Report or Err is
// meaningful; Err is context.Canceled (or the parent error) for jobs the
// sweep never started.
type SweepResult struct {
	// Index is the job's position in the input grid; Sweep returns results
	// in input order, so results[i].Index == i always holds. SweepStream
	// emits in completion order — reorder by Index if needed.
	Index int `json:"index"`
	// Label echoes the job label.
	Label string `json:"label"`
	// Network names the instantiated network; N is its vertex count.
	Network string `json:"network,omitempty"`
	N       int    `json:"n,omitempty"`
	// Report is the analysis outcome for a successful job.
	Report *Report `json:"report,omitempty"`
	// Err holds the job's failure, if any.
	Err error `json:"-"`
}

// SweepStream fans the job grid across up to WithWorkers workers (default
// GOMAXPROCS) on the worker runtime and streams one result per job on the
// returned channel as jobs complete, closing it when the grid is done —
// the feed for live dashboards and JSON-lines progress. It returns at once:
// one driver goroutine runs the grid. Emission order is completion order;
// every result carries its input Index, and each job's content is
// identical to what a serial run would produce. Per-job failures, panics
// included (ErrPanicked), are recorded in SweepResult.Err and do not stop
// the sweep; cancelling the context stops the grid mid-flight and emits
// unstarted jobs with the context error. The channel is buffered to the
// grid size, so the stream finishes (and its driver exits) even if the
// consumer walks away.
func SweepStream(ctx context.Context, jobs []SweepJob, opts ...Option) <-chan SweepResult {
	cfg := newConfig(opts)
	out := make(chan SweepResult, len(jobs))
	go func() {
		defer close(out)
		par.Do(len(jobs), cfg.workers, func(i int) {
			res := SweepResult{Index: i, Label: jobs[i].Label}
			if err := ctx.Err(); err != nil {
				res.Err = err
			} else {
				runSweepJob(ctx, jobs[i], &res, cfg)
			}
			out <- res
			// Let a waiting consumer take the result now: a sweep of short
			// jobs would otherwise run ahead of it and stream in bursts.
			runtime.Gosched()
		})
	}()
	return out
}

// Sweep is the barrier counterpart of SweepStream: it drains the stream and
// returns one result per job, in job order — the output is deterministic
// and byte-identical to a serial run regardless of worker count or
// scheduling. Cancelling the context stops the grid mid-flight, marks
// unstarted jobs with the context error, and returns that error.
func Sweep(ctx context.Context, jobs []SweepJob, opts ...Option) ([]SweepResult, error) {
	results := make([]SweepResult, len(jobs))
	for res := range SweepStream(ctx, jobs, opts...) {
		results[res.Index] = res
	}
	return results, ctx.Err()
}

// runSweepJob runs one job into res. It runs under the sweep's driver
// goroutine, which no caller's recover reaches, so it recovers a panic
// anywhere in the job into res.Err (ErrPanicked) — one bad cell must not
// take down the process running the sweep.
func runSweepJob(ctx context.Context, job SweepJob, res *SweepResult, cfg config) {
	defer func() {
		if r := recover(); r != nil {
			res.Report = nil
			res.Err = fmt.Errorf("systolic: sweep job %d (%q): %w: %v", res.Index, job.Label, ErrPanicked, r)
		}
	}()
	net, err := New(job.Kind, job.Params...)
	if err != nil {
		res.Err = err
		return
	}
	res.Network = net.Name
	res.N = net.N()
	if job.Protocol == nil {
		res.Err = ErrUnknownProtocol
		return
	}
	p, err := job.Protocol(net)
	if err != nil {
		res.Err = err
		return
	}
	// A job's own sharded rounds share the worker runtime with the sweep:
	// with every helper busy they run inline on the job's worker.
	rep, err := Analyze(ctx, net, p, WithRoundBudget(cfg.budget), WithTrace(cfg.observer), WithWorkers(cfg.workers))
	if err != nil {
		res.Err = err
		return
	}
	res.Report = rep
}
