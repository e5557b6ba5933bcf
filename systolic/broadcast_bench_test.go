package systolic

import (
	"context"
	"testing"

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
