// Ablation benchmarks for the design choices DESIGN.md calls out:
// optimizer grid resolution, sparse vs. dense norm computation, periodic
// protocol orientation strategies, and greedy vs. periodic scheduling.
package repro

import (
	"testing"

	"repro/internal/bounds"
	"repro/internal/delay"
	"repro/internal/gossip"
	"repro/internal/graph"
	"repro/internal/matrix"
	"repro/internal/protocols"
	"repro/internal/topology"
)

// BenchmarkAblationOptimizerGrid quantifies the accuracy/cost trade-off of
// the Theorem 5.1 scan resolution: the headline WBF(2) s=4 cell under
// coarser grids. At 100 points the 4th decimal can drift; at the default
// 4000 it is stable (golden tests pin 2.0219).
func BenchmarkAblationOptimizerGrid(b *testing.B) {
	sep := bounds.LemmaSeparator(bounds.WBF, 2)
	w := func(l float64) float64 { return bounds.WHalfDuplex(4, l) }
	for _, grid := range []int{50, 200, 1000, 4000} {
		b.Run(gridName(grid), func(b *testing.B) {
			var e float64
			for i := 0; i < b.N; i++ {
				e, _ = bounds.SeparatorBoundWithGrid(sep, w, grid)
			}
			b.ReportMetric(e, "WBF2_s4")
		})
	}
}

func gridName(g int) string {
	switch g {
	case 50:
		return "grid50"
	case 200:
		return "grid200"
	case 1000:
		return "grid1000"
	default:
		return "grid4000"
	}
}

// BenchmarkAblationNormSparseVsDense compares the two delay-matrix norm
// paths: the oracle, power iteration on the global sparse matrix
// (sparse-global), vs. the certification kernel, Lanczos on each distinct
// per-vertex block (dense-blocks, named for the block decomposition).
func BenchmarkAblationNormSparseVsDense(b *testing.B) {
	db := topology.NewDeBruijn(2, 5)
	p := protocols.PeriodicHalfDuplex(db.G)
	res, err := gossip.Simulate(db.G, p, 100000)
	if err != nil {
		b.Fatal(err)
	}
	dg, err := delay.Build(db.G, p, res.Rounds)
	if err != nil {
		b.Fatal(err)
	}
	const lambda = 0.618
	b.Run("sparse-global", func(b *testing.B) {
		var n float64
		for i := 0; i < b.N; i++ {
			n = dg.Matrix(lambda).Norm2()
		}
		b.ReportMetric(n, "norm")
	})
	b.Run("dense-blocks", func(b *testing.B) {
		var n float64
		for i := 0; i < b.N; i++ {
			n = dg.Norm(lambda)
		}
		b.ReportMetric(n, "norm")
	})
}

// BenchmarkAblationOrientationStrategies compares the three ways this repo
// derives a half-duplex systolic protocol from an edge coloring — block
// orientation (all colors forward then all backward), interleaved
// orientation (each color forward then backward), and orienting a
// full-duplex protocol — by the gossip rounds they need on the same graph.
func BenchmarkAblationOrientationStrategies(b *testing.B) {
	g := topology.NewDeBruijn(2, 5).G
	strategies := []struct {
		name  string
		build func() *gossip.Protocol
	}{
		{"block", func() *gossip.Protocol { return protocols.PeriodicHalfDuplex(g) }},
		{"interleaved", func() *gossip.Protocol { return protocols.PeriodicInterleavedHalfDuplex(g) }},
		{"oriented-full", func() *gossip.Protocol { return protocols.Orient(protocols.PeriodicFullDuplex(g)) }},
	}
	for _, s := range strategies {
		b.Run(s.name, func(b *testing.B) {
			var rounds int
			for i := 0; i < b.N; i++ {
				res, err := gossip.Simulate(g, s.build(), 100000)
				if err != nil {
					b.Fatal(err)
				}
				rounds = res.Rounds
			}
			b.ReportMetric(float64(rounds), "rounds")
		})
	}
}

// BenchmarkAblationGreedyVsPeriodic pits the non-systolic greedy heuristic
// against the systolic periodic protocol on the same network: the expected
// shape is greedy ≤ periodic in rounds (it is unconstrained) at higher
// construction cost.
func BenchmarkAblationGreedyVsPeriodic(b *testing.B) {
	g := topology.NewKautz(2, 4).G
	b.Run("periodic", func(b *testing.B) {
		var rounds int
		for i := 0; i < b.N; i++ {
			res, err := gossip.Simulate(g, protocols.PeriodicHalfDuplex(g), 100000)
			if err != nil {
				b.Fatal(err)
			}
			rounds = res.Rounds
		}
		b.ReportMetric(float64(rounds), "rounds")
	})
	b.Run("greedy", func(b *testing.B) {
		var rounds int
		for i := 0; i < b.N; i++ {
			p, err := protocols.GreedyGossip(g, gossip.HalfDuplex, 100000)
			if err != nil {
				b.Fatal(err)
			}
			res, err := gossip.Simulate(g, p, 100000)
			if err != nil {
				b.Fatal(err)
			}
			rounds = res.Rounds
		}
		b.ReportMetric(float64(rounds), "rounds")
	})
}

// BenchmarkAblationLocalMatrixH quantifies how fast ‖Mx(λ)‖ converges to
// its h→∞ limit: the norm at h = 4, 8, 16, 32 blocks for the balanced
// schedule (whose limit is the Lemma 4.3 cap).
func BenchmarkAblationLocalMatrixH(b *testing.B) {
	lp, err := delay.NewLocalProtocol([]int{2}, []int{2})
	if err != nil {
		b.Fatal(err)
	}
	const lambda = 0.618
	for _, h := range []int{4, 8, 16, 32} {
		h := h
		b.Run(hName(h), func(b *testing.B) {
			var norm float64
			for i := 0; i < b.N; i++ {
				norm = matrix.Norm2(lp.Mx(lambda, h))
			}
			b.ReportMetric(norm, "norm")
			b.ReportMetric(lp.NormBound(lambda), "cap")
		})
	}
}

func hName(h int) string {
	switch h {
	case 4:
		return "h4"
	case 8:
		return "h8"
	case 16:
		return "h16"
	default:
		return "h32"
	}
}

// BenchmarkAblationWeightedDiameterGrid measures the Section 7 weighted
// diameter bound quality on the unit-weight de Bruijn digraph across λ-grid
// sizes.
func BenchmarkAblationWeightedDiameterGrid(b *testing.B) {
	db := topology.NewDeBruijnDigraph(2, 6)
	w := graph.UnitWeights(db.G)
	var bound int
	for i := 0; i < b.N; i++ {
		var err error
		bound, _, err = delay.BestWeightedDiameterBound(db.G, w)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(bound), "bound")
	b.ReportMetric(6, "true_diam")
}
