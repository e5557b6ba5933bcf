package systolic

import (
	"context"
	"testing"

	"repro/internal/gossip"
	"repro/internal/graph"
)

// The broadcast-scan benchmarks compare the bit-parallel packed scan
// against the scalar per-source oracle on the acceptance workloads: a full
// hypercube d=12 scan (4096 sources, 64 batches) and a 64-source subset of
// hypercube d=16 (65536 vertices, one batch, vertex-sharded). Workers are
// pinned at 4 so the allocation counts the CI gate pins do not depend on
// the benchmark machine's GOMAXPROCS.
//
// The *Gen variants run the same scans over the hypercube generator (an
// implicit view of the same networks), pinning the price
// of computing arcs on the fly instead of walking the digraph's CSR — the
// acceptance bound is packed gen within 1.3x of packed CSR at d=12.

// scanFunc is AnalyzeBroadcastAll or one of the oracle scans below.
type scanFunc func(ctx context.Context, net *Network, opts ...Option) (*BroadcastAllReport, error)

// scalarCSR is the oracle over the digraph's CSR, built per scan as
// AnalyzeBroadcastAll builds it.
func scalarCSR(ctx context.Context, net *Network, opts ...Option) (*BroadcastAllReport, error) {
	return analyzeBroadcastAllScalar(ctx, net, graph.NewDigraphSource(net.G), opts...)
}

// scalarGen is the oracle over the network's generator.
func scalarGen(ctx context.Context, net *Network, opts ...Option) (*BroadcastAllReport, error) {
	return analyzeBroadcastAllScalar(ctx, net, net.Gen, opts...)
}

func benchScan(b *testing.B, scan scanFunc, dim int, sources []int, viaGen bool) {
	b.Helper()
	net, err := New("hypercube", Dimension(dim))
	if err != nil {
		b.Fatal(err)
	}
	if viaGen {
		net = implicitView(net)
	}
	opts := []Option{WithWorkers(4)}
	if sources != nil {
		opts = append(opts, WithSources(sources))
	}
	ctx := context.Background()
	rep, err := scan(ctx, net, opts...)
	if err != nil {
		b.Fatal(err)
	}
	if rep.Worst != dim || rep.Best != dim {
		b.Fatalf("hypercube d=%d scan measured worst %d best %d, want the diameter", dim, rep.Worst, rep.Best)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scan(ctx, net, opts...); err != nil {
			b.Fatal(err)
		}
	}
}

// subset64 spreads 64 sources across n vertices.
func subset64(n int) []int {
	sources := make([]int, 64)
	for i := range sources {
		sources[i] = i * (n / 64)
	}
	return sources
}

func BenchmarkBroadcastAllPacked(b *testing.B) { benchScan(b, AnalyzeBroadcastAll, 12, nil, false) }

func BenchmarkBroadcastAllScalar(b *testing.B) { benchScan(b, scalarCSR, 12, nil, false) }

func BenchmarkBroadcastAllPackedD16(b *testing.B) {
	benchScan(b, AnalyzeBroadcastAll, 16, subset64(1<<16), false)
}

func BenchmarkBroadcastAllScalarD16(b *testing.B) {
	benchScan(b, scalarCSR, 16, subset64(1<<16), false)
}

func BenchmarkBroadcastAllPackedGen(b *testing.B) { benchScan(b, AnalyzeBroadcastAll, 12, nil, true) }

func BenchmarkBroadcastAllScalarGen(b *testing.B) { benchScan(b, scalarGen, 12, nil, true) }

func BenchmarkBroadcastAllPackedGenD16(b *testing.B) {
	benchScan(b, AnalyzeBroadcastAll, 16, subset64(1<<16), true)
}

// BenchmarkFloodDirection is the same-run ratio of the direction-optimizing
// stepper against a pull-only loop: one 64-source batch flooded to
// completion over the implicit hypercube d=20 and de Bruijn DB(2,19)
// generators, one shard each, so the ratio is the direction rule's alone.
func BenchmarkFloodDirection(b *testing.B) {
	for _, c := range []struct {
		name, kind string
		params     []Param
	}{
		{"hypercube-d20", "hypercube", []Param{Dimension(20)}},
		{"debruijn-2-19", "debruijn", []Param{Degree(2), Diameter(19)}},
	} {
		net, err := New(c.kind, c.params...)
		if err != nil {
			b.Fatal(err)
		}
		n, sources := net.N(), subset64(net.N())
		b.Run(c.name+"/stepper", func(b *testing.B) {
			st := newFloodStepper(net.Gen, n, 1)
			b.ReportAllocs()
			for b.Loop() {
				st.reset(sources)
				for {
					if complete, changed, _ := st.step(); complete == st.pf.Full() || changed == 0 {
						break
					}
				}
			}
		})
		b.Run(c.name+"/pull", func(b *testing.B) {
			pf, fg := gossip.NewPackedFrontier(n), graph.NewFloodGen(net.Gen)
			b.ReportAllocs()
			for b.Loop() {
				pf.Reset(sources)
				for {
					if complete, changed, _ := pf.StepFloodGen(fg); complete == pf.Full() || changed == 0 {
						break
					}
				}
			}
		})
	}
}
