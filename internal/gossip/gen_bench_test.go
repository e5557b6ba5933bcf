package gossip_test

import (
	"testing"

	"repro/internal/gossip"
	"repro/internal/graph"
	"repro/internal/topology"
)

// The generator-vs-CSR step pair on hypercube d=12: same schedule, same
// packed 64-lane state, same flood kernel, one gathering over the
// materialized graph's in-neighbor CSR and one computing arcs on the fly.
// Each reports its resident footprint as bytes/node — the number the scale
// tier is about: the CSR carries 4(indptr) + 4·deg arc bytes per vertex on
// top of the 16 frontier bytes, while the generator's scratch is O(1) and
// amortizes to nothing.

func packedBenchSetup(b *testing.B, n int) *gossip.PackedFrontier {
	b.Helper()
	sources := make([]int, gossip.PackedLanes)
	for i := range sources {
		sources[i] = i % n
	}
	pf := gossip.NewPackedFrontier(n)
	pf.Reset(sources)
	return pf
}

// BenchmarkPackedStepFloodCSR is the materialized reference: one packed
// flooding step over the in-neighbor CSR of hypercube d=12.
func BenchmarkPackedStepFloodCSR(b *testing.B) {
	g := topology.Hypercube(12)
	fg := graph.NewFloodGen(graph.NewDigraphSource(g))
	n := g.N()
	pf := packedBenchSetup(b, n)
	b.ReportMetric(float64(16*n+4*(n+1)+4*g.M())/float64(n), "bytes/node")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pf.StepFloodGen(fg)
	}
}

// BenchmarkPackedStepFloodGen is the streaming counterpart: the same step
// with arcs computed from the hypercube generator (OrGatherer fast path).
func BenchmarkPackedStepFloodGen(b *testing.B) {
	gen := topology.NewHypercubeGen(12)
	n := gen.N()
	fg := graph.NewFloodGen(gen)
	pf := packedBenchSetup(b, n)
	b.ReportMetric(float64(16*n+4*len(fg.ArcBuf()))/float64(n), "bytes/node")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pf.StepFloodGen(fg)
	}
}

// inArcsOnly hides a source's OrGatherer fast path.
type inArcsOnly struct{ graph.ArcSource }

// BenchmarkPackedStepFloodGenInArcs pins the slow path — per-vertex InArcs
// through the arc buffer, no OrGatherer — via the digraph's source with
// its gatherer hidden.
func BenchmarkPackedStepFloodGenInArcs(b *testing.B) {
	g := topology.Hypercube(12)
	src := inArcsOnly{graph.NewDigraphSource(g)}
	n := g.N()
	fg := graph.NewFloodGen(src)
	pf := packedBenchSetup(b, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pf.StepFloodGen(fg)
	}
}
