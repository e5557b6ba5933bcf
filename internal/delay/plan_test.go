// Differential coverage for the compiled delay lowering: the plan-unrolled
// digraph must equal the classic round-by-round construction exactly —
// vertices in the same order, identical arc sets, bit-identical matrices and
// norms — across systolic/finite protocols, all three modes, and truncated
// round counts; and repeated λ evaluations on one instance must allocate
// nothing.
package delay

import (
	"sort"
	"testing"

	"repro/internal/bounds"
	"repro/internal/gossip"
	"repro/internal/graph"
	"repro/internal/protocols"
	"repro/internal/topology"
)

// planCases enumerates (graph, protocol) pairs covering systolic
// half-duplex, full-duplex, directed, s=2, and finite non-systolic
// schedules.
func planCases(t *testing.T) []struct {
	name string
	g    *graph.Digraph
	p    *gossip.Protocol
} {
	t.Helper()
	cyc := topology.Cycle(8)
	hyp := topology.Hypercube(3)
	db := topology.NewDeBruijnDigraph(2, 3)
	dc := topology.DirectedCycle(6)
	greedy, err := protocols.GreedyGossip(topology.Cycle(6), gossip.HalfDuplex, 1000)
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name string
		g    *graph.Digraph
		p    *gossip.Protocol
	}{
		{"path zig-zag", topology.Path(5), protocols.PathZigZag(5)},
		{"cycle periodic-half", cyc, protocols.PeriodicHalfDuplex(cyc)},
		{"cycle periodic-full", cyc, protocols.PeriodicFullDuplex(cyc)},
		{"hypercube periodic-full", hyp, protocols.PeriodicFullDuplex(hyp)},
		{"debruijn round-robin", db.G, protocols.RoundRobinDirected(db.G)},
		{"directed-cycle two-phase", dc, protocols.CycleTwoPhase(6)},
		{"cycle greedy finite", topology.Cycle(6), greedy},
	}
}

func sortedArcs(arcs []DelayArc) []DelayArc {
	c := append([]DelayArc(nil), arcs...)
	sort.Slice(c, func(i, j int) bool {
		if c[i].A != c[j].A {
			return c[i].A < c[j].A
		}
		return c[i].B < c[j].B
	})
	return c
}

// TestPlanMatchesInterpretedBuild pins the compiled lowering against the
// classic reference construction for every case and several round counts,
// including mid-period truncations and t past a finite schedule's end.
func TestPlanMatchesInterpretedBuild(t *testing.T) {
	for _, c := range planCases(t) {
		t.Run(c.name, func(t *testing.T) {
			span := c.p.Len()
			if c.p.Systolic() {
				span = c.p.Period
			}
			for _, tr := range []int{1, 2, span, span + 1, 2*span + 1, 3 * span} {
				ref, err := buildInterpreted(c.g, c.p, tr)
				if err != nil {
					t.Fatalf("t=%d: reference: %v", tr, err)
				}
				got, err := Build(c.g, c.p, tr)
				if err != nil {
					t.Fatalf("t=%d: plan build: %v", tr, err)
				}
				if got.Horizon != ref.Horizon || got.T != ref.T || got.N != ref.N {
					t.Fatalf("t=%d: header (%d,%d,%d) != reference (%d,%d,%d)",
						tr, got.Horizon, got.T, got.N, ref.Horizon, ref.T, ref.N)
				}
				if len(got.Verts) != len(ref.Verts) {
					t.Fatalf("t=%d: %d verts, reference %d", tr, len(got.Verts), len(ref.Verts))
				}
				for i := range ref.Verts {
					if got.Verts[i] != ref.Verts[i] {
						t.Fatalf("t=%d: vert %d = %+v, reference %+v", tr, i, got.Verts[i], ref.Verts[i])
					}
				}
				ga, ra := sortedArcs(got.Arcs), sortedArcs(ref.Arcs)
				if len(ga) != len(ra) {
					t.Fatalf("t=%d: %d arcs, reference %d", tr, len(ga), len(ra))
				}
				for i := range ra {
					if ga[i] != ra[i] {
						t.Fatalf("t=%d: arc %d = %+v, reference %+v", tr, i, ga[i], ra[i])
					}
				}
			}
		})
	}
}

// TestInstanceNormMatchesDigraph pins the zero-alloc evaluation path (the
// unrolled block index + scratch Lanczos) bit-identical to the norm of the
// classic round-by-round digraph, whose arcs arrive in another order, and
// the instance's matrix against the classic assembly.
func TestInstanceNormMatchesDigraph(t *testing.T) {
	for _, c := range planCases(t) {
		t.Run(c.name, func(t *testing.T) {
			pl, err := NewPlan(c.g, c.p)
			if err != nil {
				t.Fatal(err)
			}
			span := c.p.Len()
			if c.p.Systolic() {
				span = c.p.Period
			}
			tr := 2*span + 1
			in, err := pl.Instance(tr)
			if err != nil {
				t.Fatal(err)
			}
			dg, err := buildInterpreted(c.g, c.p, tr)
			if err != nil {
				t.Fatal(err)
			}
			if in.Verts() != len(dg.Verts) || in.Arcs() != len(dg.Arcs) {
				t.Fatalf("instance %d verts / %d arcs, reference %d / %d",
					in.Verts(), in.Arcs(), len(dg.Verts), len(dg.Arcs))
			}
			for _, lambda := range []float64{0.3, 0.618, 0.85, 0.3} {
				if got, want := in.Norm(lambda), dg.Norm(lambda); got != want {
					t.Fatalf("λ=%g: instance norm %v, reference %v", lambda, got, want)
				}
			}
			// The shared matrix view equals a fresh classic assembly.
			m := in.Matrix(0.5)
			ref := dg.Matrix(0.5)
			if m.Rows() != ref.Rows() || m.NNZ() != ref.NNZ() {
				t.Fatalf("matrix shape %dx nnz %d, reference %dx nnz %d", m.Rows(), m.NNZ(), ref.Rows(), ref.NNZ())
			}
			for i := 0; i < m.Rows(); i++ {
				for _, a := range dg.Arcs {
					if m.At(a.A, a.B) != ref.At(a.A, a.B) {
						t.Fatalf("matrix entry (%d,%d) differs", a.A, a.B)
					}
				}
			}
		})
	}
}

// TestPlanInstanceMemo pins that instances are memoized per round count and
// shared.
func TestPlanInstanceMemo(t *testing.T) {
	g := topology.Cycle(8)
	pl, err := NewPlan(g, protocols.PeriodicHalfDuplex(g))
	if err != nil {
		t.Fatal(err)
	}
	a, err := pl.Instance(12)
	if err != nil {
		t.Fatal(err)
	}
	b, err := pl.Instance(12)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("same round count produced distinct instances")
	}
	c, err := pl.Instance(13)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Error("different round counts share an instance")
	}
	if _, err := pl.Instance(0); err == nil {
		t.Error("t=0 accepted")
	}

	// The memo is bounded: a scan over many round counts evicts oldest-first
	// instead of retaining every unrolled digraph.
	for tr := 20; tr < 20+2*maxMemoInstances; tr++ {
		if _, err := pl.Instance(tr); err != nil {
			t.Fatal(err)
		}
	}
	if len(pl.insts) > maxMemoInstances || len(pl.instAge) > maxMemoInstances {
		t.Errorf("instance memo grew to %d entries, cap %d", len(pl.insts), maxMemoInstances)
	}
	evicted, err := pl.Instance(12) // long evicted; must recompute, not fail
	if err != nil {
		t.Fatal(err)
	}
	if evicted == a {
		t.Error("evicted instance pointer resurfaced without recomputation")
	}
	if evicted.Verts() != a.Verts() || evicted.Arcs() != a.Arcs() {
		t.Error("recomputed instance differs from the original")
	}
}

// TestInstanceNormZeroAlloc pins the acceptance criterion: the λ-evaluation
// loop over one instance — fresh λ values, past the memo — performs zero
// steady-state allocations.
func TestInstanceNormZeroAlloc(t *testing.T) {
	g := topology.NewDeBruijn(2, 4)
	pl, err := NewPlan(g.G, protocols.PeriodicHalfDuplex(g.G))
	if err != nil {
		t.Fatal(err)
	}
	in, err := pl.Instance(3 * pl.Period())
	if err != nil {
		t.Fatal(err)
	}
	lambdas := make([]float64, 64)
	for i := range lambdas {
		lambdas[i] = 0.10 + 0.8*float64(i)/float64(len(lambdas))
	}
	in.Norm(0.5) // warm the scratch and the distinct-block list
	i := 0
	if allocs := testing.AllocsPerRun(len(lambdas), func() {
		in.Norm(lambdas[i%len(lambdas)])
		i++
	}); allocs != 0 {
		t.Errorf("Norm λ-loop allocates %.1f per run, want 0", allocs)
	}
}

// TestInstanceNormMemo pins that re-certifying at a recently evaluated λ is
// answered from the memo with the same value, after the power table was
// rewritten for another λ.
func TestInstanceNormMemo(t *testing.T) {
	g := topology.Cycle(8)
	pl, err := NewPlan(g, protocols.PeriodicHalfDuplex(g))
	if err != nil {
		t.Fatal(err)
	}
	in, err := pl.Instance(16)
	if err != nil {
		t.Fatal(err)
	}
	first := in.Norm(0.618)
	in.Norm(0.4) // rewrite vals for another λ
	if again := in.Norm(0.618); again != first {
		t.Fatalf("memoized norm %v != first evaluation %v", again, first)
	}
}

// BenchmarkDelayPlanInstantiate measures unrolling a compiled plan for a
// round count — the per-certification cost once the plan is cached (the
// classic Build additionally re-walks and re-validates the protocol every
// call).
func BenchmarkDelayPlanInstantiate(b *testing.B) {
	g := topology.Hypercube(8)
	p := protocols.PeriodicFullDuplex(g)
	pl, err := NewPlan(g, p)
	if err != nil {
		b.Fatal(err)
	}
	t := 3 * p.Period
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := pl.instantiate(t)
		if in.Verts() == 0 {
			b.Fatal("empty instance")
		}
	}
}

// BenchmarkDelayBuildInterpreted is the classic construction on the same
// workload, for comparison with BenchmarkDelayPlanInstantiate.
func BenchmarkDelayBuildInterpreted(b *testing.B) {
	g := topology.Hypercube(8)
	p := protocols.PeriodicFullDuplex(g)
	t := 3 * p.Period
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := buildInterpreted(g, p, t); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDelayNormCold measures one cold ‖M(λ₀)‖ — the first evaluation
// on a freshly unrolled instance, so the distinct-block list is built too —
// at the completion round count of three shapes: many mid-sized blocks
// (complete/round-robin n=32), 4096 identical k=12 blocks (hypercube d=12
// dimension exchange) and banded blocks with hundreds of columns
// (path/zigzag n=400). Beside each kernel run, in the same run, the oracle
// arm times power iteration on the global sparse matrix (CSR.Norm2), the
// evaluation the block kernel replaced.
func BenchmarkDelayNormCold(b *testing.B) {
	complete := topology.Complete(32)
	cases := []struct {
		name string
		g    *graph.Digraph
		p    *gossip.Protocol
	}{
		{"complete-round-robin-n32", complete, protocols.RoundRobinDirected(complete)},
		{"hypercube-d12", topology.Hypercube(12), protocols.HypercubeExchange(12)},
		{"path-zigzag-n400", topology.Path(400), protocols.PathZigZag(400)},
	}
	for _, c := range cases {
		res, err := gossip.Simulate(c.g, c.p, 1<<16)
		if err != nil {
			b.Fatal(err)
		}
		pl, err := NewPlan(c.g, c.p)
		if err != nil {
			b.Fatal(err)
		}
		lambda := rootLambda(c.p)
		b.Run(c.name+"/kernel", func(b *testing.B) {
			var norm float64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				in := pl.instantiate(res.Rounds)
				b.StartTimer()
				norm = in.Norm(lambda)
			}
			b.ReportMetric(norm, "norm")
		})
		b.Run(c.name+"/oracle", func(b *testing.B) {
			m := pl.instantiate(res.Rounds).Matrix(lambda)
			b.ResetTimer()
			var norm float64
			for i := 0; i < b.N; i++ {
				norm = m.Norm2()
			}
			b.ReportMetric(norm, "norm")
		})
	}
}

// rootLambda is the certification's λ₀ for p: the root of the general
// Theorem 4.1 bound of p's mode and period.
func rootLambda(p *gossip.Protocol) float64 {
	if p.Mode == gossip.FullDuplex {
		_, l := bounds.GeneralFullDuplex(p.Period)
		return l
	}
	_, l := bounds.GeneralHalfDuplex(p.Period)
	return l
}
