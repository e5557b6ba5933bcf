// Benchmark harness: one benchmark per table/figure of the paper plus
// workload benchmarks for the substrates. Each figure benchmark regenerates
// the corresponding table from scratch per iteration and reports the
// headline coefficient as a metric, so `go test -bench=. -benchmem` both
// exercises and documents the reproduction. The printed tables themselves
// come from `go run ./cmd/gossiplb -figure N`.
package repro

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/bounds"
	"repro/internal/delay"
	"repro/internal/gossip"
	"repro/internal/graph"
	"repro/internal/matrix"
	"repro/internal/protocols"
	"repro/internal/search"
	"repro/internal/separator"
	"repro/internal/topology"
	"repro/systolic"
)

// BenchmarkFig4GeneralLowerBound regenerates the general e(s) table
// (Fig. 4): bisection solves of λ·√p⌈s/2⌉·√p⌊s/2⌋ = 1 for s = 3…8 and ∞.
func BenchmarkFig4GeneralLowerBound(b *testing.B) {
	var rows []bounds.Fig4Row
	for i := 0; i < b.N; i++ {
		rows = bounds.Fig4(bounds.Fig4Periods)
	}
	b.ReportMetric(rows[0].E, "e(3)")
	b.ReportMetric(rows[len(rows)-1].E, "e(inf)")
}

// BenchmarkFig5TopologySystolic regenerates the per-topology systolic table
// (Fig. 5): Theorem 5.1 optimizations over λ for every family, degree and
// period, combined with the general bound per the paper's footnote.
func BenchmarkFig5TopologySystolic(b *testing.B) {
	periods := []int{3, 4, 5, 6, 7, 8}
	var rows []bounds.TopologyRow
	for i := 0; i < b.N; i++ {
		rows = bounds.Fig5([]int{2, 3}, periods)
	}
	// Headline cell: WBF(2,D) at s=4 (paper: 2.0218).
	for _, r := range rows {
		if r.Family == bounds.WBF && r.D == 2 && r.S == 4 {
			b.ReportMetric(r.E, "WBF2_s4")
		}
	}
}

// BenchmarkFig6NonSystolic regenerates the non-systolic per-topology table
// (Fig. 6), including the diameter fallbacks.
func BenchmarkFig6NonSystolic(b *testing.B) {
	var rows []bounds.TopologyRow
	for i := 0; i < b.N; i++ {
		rows = bounds.Fig6([]int{2, 3})
	}
	for _, r := range rows {
		if r.Family == bounds.DB && r.D == 2 {
			b.ReportMetric(r.E, "DB2_inf") // paper: 1.5876
		}
	}
}

// BenchmarkFig8FullDuplex regenerates the full-duplex table (Fig. 8).
func BenchmarkFig8FullDuplex(b *testing.B) {
	periods := []int{3, 4, 5, 6, 7, 8, bounds.SInfinity}
	var rows []bounds.TopologyRow
	for i := 0; i < b.N; i++ {
		rows = bounds.Fig8([]int{2, 3}, periods)
	}
	b.ReportMetric(float64(len(rows)), "cells")
}

// BenchmarkFig1to3LocalMatrices builds the structural objects of Figs. 1–3
// (Mx, Nx, Ox for a k=2 local protocol over many blocks) and evaluates the
// Lemma 4.3 norm chain.
func BenchmarkFig1to3LocalMatrices(b *testing.B) {
	lp, err := delay.NewLocalProtocol([]int{2, 1}, []int{1, 2})
	if err != nil {
		b.Fatal(err)
	}
	const h = 32
	lambda := 0.618
	var norm float64
	for i := 0; i < b.N; i++ {
		mx := lp.Mx(lambda, h)
		norm = matrix.Norm2(mx)
	}
	b.ReportMetric(norm, "norm")
	b.ReportMetric(lp.NormBound(lambda), "cap")
}

// BenchmarkFig7FullDuplexLocal builds the banded full-duplex local matrix of
// Fig. 7 and checks Lemma 6.1.
func BenchmarkFig7FullDuplexLocal(b *testing.B) {
	var norm, cap float64
	for i := 0; i < b.N; i++ {
		norm, cap = delay.Lemma61Check(4, 64, 0.5)
	}
	b.ReportMetric(norm, "norm")
	b.ReportMetric(cap, "cap")
}

// BenchmarkBroadcastConstants solves the d-bonacci broadcasting constants
// c(d) of [22,2] used by the Section 6 comparison.
func BenchmarkBroadcastConstants(b *testing.B) {
	var c2 float64
	for i := 0; i < b.N; i++ {
		c2 = bounds.BroadcastConstant(2)
		_ = bounds.BroadcastConstant(3)
		_ = bounds.BroadcastConstant(4)
		_ = bounds.BroadcastConstant(8)
	}
	b.ReportMetric(c2, "c(2)")
}

// BenchmarkDelayMatrixNorm measures the full pipeline on a real protocol:
// build the delay digraph of a periodic protocol on DB(2,5) and compute
// ‖M(λ₀)‖ as the largest per-vertex block norm.
func BenchmarkDelayMatrixNorm(b *testing.B) {
	db := topology.NewDeBruijn(2, 5)
	p := protocols.PeriodicHalfDuplex(db.G)
	res, err := gossip.Simulate(db.G, p, 100000)
	if err != nil {
		b.Fatal(err)
	}
	_, lambda := bounds.GeneralHalfDuplex(p.Period)
	b.ResetTimer()
	var norm float64
	for i := 0; i < b.N; i++ {
		dg, err := delay.Build(db.G, p, res.Rounds)
		if err != nil {
			b.Fatal(err)
		}
		norm = dg.Norm(lambda)
	}
	b.ReportMetric(norm, "norm_at_root")
}

// BenchmarkS2SystolicCycle exercises the Section 4 s=2 remark: 2-systolic
// gossip on a directed cycle takes Θ(n) rounds (n−1 lower bound).
func BenchmarkS2SystolicCycle(b *testing.B) {
	const n = 128
	g := topology.DirectedCycle(n)
	p := protocols.CycleTwoPhase(n)
	var rounds int
	for i := 0; i < b.N; i++ {
		res, err := gossip.Simulate(g, p, 10*n)
		if err != nil {
			b.Fatal(err)
		}
		rounds = res.Rounds
	}
	b.ReportMetric(float64(rounds), "rounds")
	b.ReportMetric(float64(n-1), "lower_bound")
}

// BenchmarkUpperVsLowerDeBruijn runs the full analysis pipeline (simulate +
// delay digraph + theorem checks) on DB(2,5).
func BenchmarkUpperVsLowerDeBruijn(b *testing.B) {
	net, err := systolic.New("debruijn", systolic.Degree(2), systolic.Diameter(5))
	if err != nil {
		b.Fatal(err)
	}
	p := protocols.PeriodicHalfDuplex(net.G)
	ctx := context.Background()
	var rep *systolic.Report
	for i := 0; i < b.N; i++ {
		rep, err = systolic.Analyze(ctx, net, p)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rep.Measured), "measured_rounds")
	b.ReportMetric(float64(rep.LowerBound.Rounds), "bound_rounds")
}

// BenchmarkUpperVsLowerWBF does the same on the Wrapped Butterfly, the
// paper's flagship example.
func BenchmarkUpperVsLowerWBF(b *testing.B) {
	net, err := systolic.New("wbf", systolic.Degree(2), systolic.Diameter(4))
	if err != nil {
		b.Fatal(err)
	}
	p := protocols.PeriodicHalfDuplex(net.G)
	ctx := context.Background()
	var rep *systolic.Report
	for i := 0; i < b.N; i++ {
		rep, err = systolic.Analyze(ctx, net, p, systolic.WithRoundBudget(200000))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rep.Measured), "measured_rounds")
	b.ReportMetric(float64(rep.LowerBound.Rounds), "bound_rounds")
}

// BenchmarkUpperVsLowerHypercubeFullDuplex measures the optimal
// dimension-exchange protocol against the full-duplex bound.
func BenchmarkUpperVsLowerHypercubeFullDuplex(b *testing.B) {
	const D = 7
	net, err := systolic.New("hypercube", systolic.Dimension(D))
	if err != nil {
		b.Fatal(err)
	}
	p := protocols.HypercubeExchange(D)
	ctx := context.Background()
	var rep *systolic.Report
	for i := 0; i < b.N; i++ {
		rep, err = systolic.Analyze(ctx, net, p, systolic.WithRoundBudget(1000))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rep.Measured), "measured_rounds")
}

// BenchmarkSweepReproduceGrid runs the cmd/reproduce upper-vs-lower grid
// through the parallel Sweep engine (GOMAXPROCS workers, deterministic
// result order) — the workload that replaced the old serial loop.
func BenchmarkSweepReproduceGrid(b *testing.B) {
	jobs := []systolic.SweepJob{
		{Label: "db-periodic", Kind: "debruijn",
			Params:   []systolic.Param{systolic.Degree(2), systolic.Diameter(5)},
			Protocol: systolic.UseProtocol("periodic-half", 0)},
		{Label: "wbf-periodic", Kind: "wbf",
			Params:   []systolic.Param{systolic.Degree(2), systolic.Diameter(4)},
			Protocol: systolic.UseProtocol("periodic-half", 0)},
		{Label: "kautz-full", Kind: "kautz",
			Params:   []systolic.Param{systolic.Degree(2), systolic.Diameter(4)},
			Protocol: systolic.UseProtocol("periodic-full", 0)},
		{Label: "bf-full", Kind: "butterfly",
			Params:   []systolic.Param{systolic.Degree(2), systolic.Diameter(3)},
			Protocol: systolic.UseProtocol("periodic-full", 0)},
		{Label: "q6-exchange", Kind: "hypercube",
			Params:   []systolic.Param{systolic.Dimension(6)},
			Protocol: systolic.UseProtocol("hypercube", 0)},
		{Label: "db-greedy", Kind: "debruijn",
			Params:   []systolic.Param{systolic.Degree(2), systolic.Diameter(5)},
			Protocol: systolic.UseProtocol("greedy-half", 100000)},
	}
	ctx := context.Background()
	var ok int
	for i := 0; i < b.N; i++ {
		results, err := systolic.Sweep(ctx, jobs, systolic.WithRoundBudget(200000))
		if err != nil {
			b.Fatal(err)
		}
		ok = 0
		for _, r := range results {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
			if r.Report.Measured >= r.Report.LowerBound.Rounds && r.Report.TheoremRespected {
				ok++
			}
		}
	}
	b.ReportMetric(float64(ok), "cells_ok")
}

// BenchmarkSessionRun measures the resumable engine end to end: open a
// session on DB(2,7), step it in 8-round chunks to completion.
func BenchmarkSessionRun(b *testing.B) {
	net, err := systolic.New("debruijn", systolic.Degree(2), systolic.Diameter(7))
	if err != nil {
		b.Fatal(err)
	}
	p := protocols.PeriodicHalfDuplex(net.G)
	ctx := context.Background()
	var rounds int
	for i := 0; i < b.N; i++ {
		sess, err := systolic.NewEngine(net, p)
		if err != nil {
			b.Fatal(err)
		}
		for !sess.Done() {
			if _, err := sess.Step(ctx, 8); err != nil {
				b.Fatal(err)
			}
		}
		rounds = sess.Rounds()
		sess.Close()
	}
	b.ReportMetric(float64(rounds), "rounds")
}

// BenchmarkSessionCheckpoint measures Snapshot + JSON round trip + Restore
// of a mid-flight DB(2,7) session — the cost of pausing and resuming.
func BenchmarkSessionCheckpoint(b *testing.B) {
	net, err := systolic.New("debruijn", systolic.Degree(2), systolic.Diameter(7))
	if err != nil {
		b.Fatal(err)
	}
	p := protocols.PeriodicHalfDuplex(net.G)
	ctx := context.Background()
	sess, err := systolic.NewEngine(net, p)
	if err != nil {
		b.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.Step(ctx, 10); err != nil {
		b.Fatal(err)
	}
	target, err := systolic.NewEngine(net, p)
	if err != nil {
		b.Fatal(err)
	}
	defer target.Close()
	var buf bytes.Buffer
	var size int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := systolic.WriteCheckpoint(&buf, sess.Snapshot()); err != nil {
			b.Fatal(err)
		}
		size = buf.Len() // ReadCheckpoint drains the buffer below
		ck, err := systolic.ReadCheckpoint(&buf)
		if err != nil {
			b.Fatal(err)
		}
		if err := target.Restore(ck); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(size))
}

// BenchmarkSweepStreamReproduceGrid runs the reproduce grid through the
// streaming sweep, draining results in completion order.
func BenchmarkSweepStreamReproduceGrid(b *testing.B) {
	jobs := []systolic.SweepJob{
		{Label: "db-periodic", Kind: "debruijn",
			Params:   []systolic.Param{systolic.Degree(2), systolic.Diameter(5)},
			Protocol: systolic.UseProtocol("periodic-half", 0)},
		{Label: "wbf-periodic", Kind: "wbf",
			Params:   []systolic.Param{systolic.Degree(2), systolic.Diameter(4)},
			Protocol: systolic.UseProtocol("periodic-half", 0)},
		{Label: "kautz-full", Kind: "kautz",
			Params:   []systolic.Param{systolic.Degree(2), systolic.Diameter(4)},
			Protocol: systolic.UseProtocol("periodic-full", 0)},
		{Label: "q6-exchange", Kind: "hypercube",
			Params:   []systolic.Param{systolic.Dimension(6)},
			Protocol: systolic.UseProtocol("hypercube", 0)},
	}
	ctx := context.Background()
	var ok int
	for i := 0; i < b.N; i++ {
		ok = 0
		for res := range systolic.SweepStream(ctx, jobs, systolic.WithRoundBudget(200000)) {
			if res.Err != nil {
				b.Fatal(res.Err)
			}
			if res.Report.Measured >= res.Report.LowerBound.Rounds {
				ok++
			}
		}
	}
	b.ReportMetric(float64(ok), "cells_ok")
}

// BenchmarkSimulationEngine measures raw simulator throughput: periodic
// full-duplex gossip on a 16×16 torus.
func BenchmarkSimulationEngine(b *testing.B) {
	g := topology.Torus(16, 16)
	p := protocols.PeriodicFullDuplex(g)
	for i := 0; i < b.N; i++ {
		if _, err := gossip.Simulate(g, p, 100000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGreedyGossip measures the greedy matching heuristic in its three
// modes on K(2,5) (n = 48, knowledge in one word per vertex) and on the
// undirected DB(2,7) (n = 128, two words per vertex).
func BenchmarkGreedyGossip(b *testing.B) {
	for _, c := range []struct {
		name string
		g    *graph.Digraph
	}{
		{"kautz-2-5", topology.NewKautz(2, 5).G},
		{"debruijn-2-7", topology.NewDeBruijn(2, 7).G},
	} {
		for _, m := range []struct {
			name  string
			build func() (*gossip.Protocol, error)
		}{
			{"half", func() (*gossip.Protocol, error) { return protocols.GreedyGossip(c.g, gossip.HalfDuplex, 10000) }},
			{"directed", func() (*gossip.Protocol, error) { return protocols.GreedyGossip(c.g, gossip.Directed, 10000) }},
			{"full", func() (*gossip.Protocol, error) { return protocols.GreedyGossipFullDuplex(c.g, 10000) }},
		} {
			b.Run(c.name+"/"+m.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := m.build(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSeparatorVerification measures the BFS verification of the
// marker separator on DB(2,10) (1024 vertices).
func BenchmarkSeparatorVerification(b *testing.B) {
	db := topology.NewDeBruijnDigraph(2, 10)
	s := separator.DeBruijnMarker(db)
	for i := 0; i < b.N; i++ {
		if _, err := s.Verify(db.G); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSeparatorOptimizer measures a single Theorem 5.1 optimization.
func BenchmarkSeparatorOptimizer(b *testing.B) {
	sep := bounds.LemmaSeparator(bounds.WBF, 2)
	var e float64
	for i := 0; i < b.N; i++ {
		e, _ = bounds.SeparatorHalfDuplex(sep, 4)
	}
	b.ReportMetric(e, "WBF2_s4")
}

// BenchmarkProtocolEncode measures schedule serialization throughput.
func BenchmarkProtocolEncode(b *testing.B) {
	p := protocols.PeriodicHalfDuplex(topology.NewDeBruijn(2, 7).G)
	var buf bytes.Buffer
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := p.Encode(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}

// BenchmarkProtocolDecode measures schedule parsing throughput.
func BenchmarkProtocolDecode(b *testing.B) {
	p := protocols.PeriodicHalfDuplex(topology.NewDeBruijn(2, 7).G)
	var buf bytes.Buffer
	if err := p.Encode(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		if _, err := gossip.Decode(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtractLocal measures per-vertex local-protocol extraction across
// a whole network.
func BenchmarkExtractLocal(b *testing.B) {
	g := topology.NewDeBruijn(2, 6).G
	p := protocols.PeriodicHalfDuplex(g)
	for i := 0; i < b.N; i++ {
		for v := 0; v < g.N(); v++ {
			_, _ = delay.ExtractLocal(p, v)
		}
	}
}

// BenchmarkBroadcastUpperVsLower measures the broadcast pipeline on WBF(2,5).
func BenchmarkBroadcastUpperVsLower(b *testing.B) {
	net, err := systolic.New("wbf", systolic.Degree(2), systolic.Diameter(5))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	var rep *systolic.BroadcastReport
	for i := 0; i < b.N; i++ {
		rep, err = systolic.AnalyzeBroadcast(ctx, net, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rep.Measured), "measured_rounds")
	b.ReportMetric(float64(rep.CBound), "bound_rounds")
}

// BenchmarkExhaustiveSearch measures the exact-optimum search on K5
// full-duplex (the workload behind the "exact optima" experiment table).
func BenchmarkExhaustiveSearch(b *testing.B) {
	g := topology.Complete(5)
	var opt int
	for i := 0; i < b.N; i++ {
		var err error
		opt, err = search.OptimalGossipTime(g, gossip.FullDuplex, 8)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(opt), "optimal_rounds")
}

// BenchmarkTopologyGeneration measures generator cost for the largest
// networks used in the experiments.
func BenchmarkTopologyGeneration(b *testing.B) {
	b.Run("DB(2,12)", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			topology.NewDeBruijnDigraph(2, 12)
		}
	})
	b.Run("WBF(2,8)", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			topology.NewWrappedButterfly(2, 8)
		}
	})
	b.Run("K(2,10)", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			topology.NewKautzDigraph(2, 10)
		}
	})
}
