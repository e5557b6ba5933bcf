package systolic

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// integrationGrid is the (topology × protocol) matrix the integration sweep
// covers: every registered builtin with every protocol that applies to it.
func integrationGrid() []SweepJob {
	symmetric := []string{"periodic-half", "periodic-full", "periodic-interleaved", "greedy-half", "greedy-full"}
	directed := []string{"round-robin"}
	nets := []struct {
		kind      string
		params    []Param
		protocols []string
	}{
		{"path", []Param{Nodes(9)}, symmetric},
		{"cycle", []Param{Nodes(10)}, symmetric},
		{"complete", []Param{Nodes(8)}, symmetric},
		{"hypercube", []Param{Dimension(4)}, symmetric},
		{"grid", []Param{Rows(3), Cols(4)}, symmetric},
		{"torus", []Param{Rows(3), Cols(4)}, symmetric},
		{"tree", []Param{Degree(2), Depth(3)}, symmetric},
		{"shuffle-exchange", []Param{Dimension(4)}, symmetric},
		{"ccc", []Param{Dimension(3)}, symmetric},
		{"butterfly", []Param{Degree(2), Diameter(3)}, symmetric},
		{"wbf", []Param{Degree(2), Diameter(3)}, symmetric},
		{"debruijn", []Param{Degree(2), Diameter(4)}, symmetric},
		{"kautz", []Param{Degree(2), Diameter(3)}, symmetric},
		{"wbf-digraph", []Param{Degree(2), Diameter(3)}, directed},
		{"debruijn-digraph", []Param{Degree(2), Diameter(4)}, directed},
		{"kautz-digraph", []Param{Degree(2), Diameter(3)}, directed},
	}
	var jobs []SweepJob
	for _, nc := range nets {
		for _, proto := range nc.protocols {
			jobs = append(jobs, SweepJob{
				Label:    fmt.Sprintf("%s/%s", nc.kind, proto),
				Kind:     nc.kind,
				Params:   nc.params,
				Protocol: UseProtocol(proto, 100000),
			})
		}
	}
	return jobs
}

// TestIntegrationSweep fans the full analysis pipeline over the
// (topology × protocol) grid through the parallel Sweep engine and asserts,
// for every cell: the protocol validates, gossip completes, the measured
// time dominates the certified bound, Theorem 4.1 is respected, and the
// delay-matrix norm at the root stays ≤ 1 (Lemma 4.3 / 6.1).
func TestIntegrationSweep(t *testing.T) {
	jobs := integrationGrid()
	results, err := Sweep(context.Background(), jobs, WithRoundBudget(500000))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(jobs) {
		t.Fatalf("got %d results for %d jobs", len(results), len(jobs))
	}
	for i, res := range results {
		res := res
		t.Run(jobs[i].Label, func(t *testing.T) {
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			rep := res.Report
			if rep.Measured <= 0 {
				t.Fatal("no rounds measured")
			}
			if rep.Measured < rep.LowerBound.Rounds {
				t.Errorf("measured %d < certified bound %d — the paper is falsified or the harness is wrong",
					rep.Measured, rep.LowerBound.Rounds)
			}
			if !rep.TheoremRespected {
				t.Error("Theorem 4.1 inequality violated")
			}
			if rep.NormAtRoot > rep.NormCap+1e-8 {
				t.Errorf("‖M(λ₀)‖ = %g exceeds the Lemma 4.3/6.1 cap", rep.NormAtRoot)
			}
		})
	}
}

// TestSweepDeterministicOrder: the engine must return results in job order
// with identical content no matter how many workers race over the grid.
func TestSweepDeterministicOrder(t *testing.T) {
	jobs := []SweepJob{
		{Label: "db4", Kind: "debruijn", Params: []Param{Degree(2), Diameter(4)}, Protocol: UseProtocol("periodic-half", 0)},
		{Label: "k3", Kind: "kautz", Params: []Param{Degree(2), Diameter(3)}, Protocol: UseProtocol("periodic-full", 0)},
		{Label: "q4", Kind: "hypercube", Params: []Param{Dimension(4)}, Protocol: UseProtocol("hypercube", 0)},
		{Label: "c12", Kind: "cycle", Params: []Param{Nodes(12)}, Protocol: UseProtocol("periodic-half", 0)},
		{Label: "wbf3", Kind: "wbf", Params: []Param{Degree(2), Diameter(3)}, Protocol: UseProtocol("periodic-half", 0)},
		{Label: "grid34", Kind: "grid", Params: []Param{Rows(3), Cols(4)}, Protocol: UseProtocol("greedy-half", 10000)},
	}
	serial, err := Sweep(context.Background(), jobs, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Sweep(context.Background(), jobs, WithWorkers(8))
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		s, p := serial[i], parallel[i]
		if s.Index != i || p.Index != i {
			t.Fatalf("result %d carries index %d/%d", i, s.Index, p.Index)
		}
		if s.Label != p.Label || s.Network != p.Network || s.N != p.N {
			t.Errorf("result %d metadata differs: %+v vs %+v", i, s, p)
		}
		if s.Err != nil || p.Err != nil {
			t.Fatalf("result %d errored: %v / %v", i, s.Err, p.Err)
		}
		if *s.Report != *p.Report {
			t.Errorf("result %d report differs between 1 and 8 workers:\n  serial:   %+v\n  parallel: %+v",
				i, *s.Report, *p.Report)
		}
	}
}

// TestSweepCancellationStopsMidGrid: cancelling the context mid-sweep must
// stop the engine, mark unstarted jobs with the context error, and surface
// the error from Sweep itself.
func TestSweepCancellationStopsMidGrid(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	jobs := make([]SweepJob, 8)
	for i := range jobs {
		jobs[i] = SweepJob{
			Label:  fmt.Sprintf("job%d", i),
			Kind:   "debruijn",
			Params: []Param{Degree(2), Diameter(4)},
			Protocol: func(net *Network) (*Protocol, error) {
				// The first job to run pulls the plug on the whole grid.
				once.Do(cancel)
				return NewProtocol("periodic-half", net, 0)
			},
		}
	}
	results, err := Sweep(ctx, jobs, WithWorkers(1))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Sweep error = %v, want context.Canceled", err)
	}
	if len(results) != len(jobs) {
		t.Fatalf("got %d results, want %d", len(results), len(jobs))
	}
	var completed, cancelled int
	for _, res := range results {
		switch {
		case res.Err == nil && res.Report != nil:
			completed++
		case errors.Is(res.Err, context.Canceled):
			cancelled++
		default:
			t.Errorf("job %d: unexpected state report=%v err=%v", res.Index, res.Report, res.Err)
		}
	}
	if cancelled == 0 {
		t.Error("no job was cancelled — the sweep ran the whole grid")
	}
	if completed == len(jobs) {
		t.Error("every job completed despite cancellation")
	}
}

// TestSweepPerJobErrorsDoNotAbort: a bad cell is reported in its slot while
// the rest of the grid completes.
func TestSweepPerJobErrorsDoNotAbort(t *testing.T) {
	jobs := []SweepJob{
		{Label: "bad-kind", Kind: "moebius", Protocol: UseProtocol("periodic-half", 0)},
		{Label: "bad-param", Kind: "cycle", Params: []Param{Nodes(1)}, Protocol: UseProtocol("periodic-half", 0)},
		{Label: "bad-protocol", Kind: "cycle", Params: []Param{Nodes(8)}, Protocol: UseProtocol("warp-drive", 0)},
		{Label: "good", Kind: "cycle", Params: []Param{Nodes(8)}, Protocol: UseProtocol("periodic-half", 0)},
	}
	results, err := Sweep(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(results[0].Err, ErrUnknownTopology) {
		t.Errorf("bad-kind err = %v", results[0].Err)
	}
	if !errors.Is(results[1].Err, ErrBadParam) {
		t.Errorf("bad-param err = %v", results[1].Err)
	}
	if !errors.Is(results[2].Err, ErrUnknownProtocol) {
		t.Errorf("bad-protocol err = %v", results[2].Err)
	}
	if results[3].Err != nil || results[3].Report == nil {
		t.Errorf("good cell failed: %+v", results[3])
	}
}

// TestSweepRecoversPanickingJob: a protocol builder that panics (the
// doubling construction needs n a power of two; CCC(3) has 24 vertices)
// fails its own job with ErrPanicked naming the job, and the rest of the
// grid still runs.
func TestSweepRecoversPanickingJob(t *testing.T) {
	jobs := []SweepJob{
		{Label: "ccc/doubling", Kind: "ccc", Params: []Param{Dimension(3)}, Protocol: UseProtocol("doubling", 0)},
		{Label: "good", Kind: "cycle", Params: []Param{Nodes(8)}, Protocol: UseProtocol("periodic-half", 0)},
	}
	results, err := Sweep(context.Background(), jobs, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if bad := results[0]; !errors.Is(bad.Err, ErrPanicked) || bad.Report != nil {
		t.Errorf("panicking job: err = %v, report %v; want ErrPanicked and no report", bad.Err, bad.Report)
	} else if !strings.Contains(bad.Err.Error(), `"ccc/doubling"`) {
		t.Errorf("panic error %q does not name the job", bad.Err)
	}
	if good := results[1]; good.Err != nil || good.Report == nil {
		t.Errorf("valid job after the panic: err = %v, report %v", good.Err, good.Report)
	}
}

// TestBroadcastSweep checks the broadcast pipeline across topologies: the
// measured BFS-schedule broadcast dominates the certified bound and the
// eccentricity floor.
func TestBroadcastSweep(t *testing.T) {
	ctx := context.Background()
	for _, nc := range []struct {
		kind   string
		params []Param
	}{
		{"path", []Param{Nodes(17)}}, {"cycle", []Param{Nodes(12)}},
		{"hypercube", []Param{Dimension(5)}},
		{"butterfly", []Param{Degree(2), Diameter(3)}},
		{"wbf", []Param{Degree(2), Diameter(3)}},
		{"debruijn", []Param{Degree(2), Diameter(5)}},
		{"kautz", []Param{Degree(2), Diameter(4)}},
		{"tree", []Param{Degree(3), Depth(2)}},
		{"grid", []Param{Rows(4), Cols(5)}},
	} {
		t.Run(nc.kind, func(t *testing.T) {
			net, err := New(nc.kind, nc.params...)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := AnalyzeBroadcast(ctx, net, 0)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Measured < rep.CBound {
				t.Errorf("broadcast %d rounds below certified bound %d", rep.Measured, rep.CBound)
			}
			if rep.Measured < net.G.Eccentricity(0) {
				t.Errorf("broadcast beat the eccentricity — impossible")
			}
		})
	}
}

// TestBroadcastHypercubeTight: BFS broadcast on Q_D from any corner is
// within a factor 2 of the D-round optimum, and the certified bound is D.
func TestBroadcastHypercubeTight(t *testing.T) {
	net, _ := New("hypercube", Dimension(5))
	rep, err := AnalyzeBroadcast(context.Background(), net, 0, WithRoundBudget(1000))
	if err != nil {
		t.Fatal(err)
	}
	if rep.CBound != 5 {
		t.Errorf("certified bound = %d, want 5", rep.CBound)
	}
	if rep.Measured > 10 {
		t.Errorf("BFS broadcast on Q5 took %d rounds", rep.Measured)
	}
}
