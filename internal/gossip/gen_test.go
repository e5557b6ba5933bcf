package gossip

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/topology"
)

// inArcsOnly hides a source's OrGatherer fast path, so the flood step
// takes the per-vertex InArcs path.
type inArcsOnly struct{ graph.ArcSource }

// TestStepFloodGenMatchesCSR: the flood step over a generator must return
// exactly what it returns over the in-neighbor CSR of the materialized
// graph — complete mask, changed mask, informed count, and every
// (vertex, lane) bit — round for round, on the OrGatherer fast path of
// each generator and on the per-vertex InArcs path (a random digraph's
// source with its gatherer hidden).
func TestStepFloodGenMatchesCSR(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	srcs := []struct {
		name string
		gen  graph.ArcSource
	}{
		{"digraph-source", nil}, // filled per trial below
		{"hypercube-gen", topology.NewHypercubeGen(6)},
		{"ccc-gen", topology.NewCCCGen(4)},
		{"kautz-gen", topology.NewKautzGen(2, 4, false)},
	}
	for _, tc := range srcs {
		t.Run(tc.name, func(t *testing.T) {
			for trial := 0; trial < 8; trial++ {
				gen := tc.gen
				if gen == nil {
					n := 2 + rng.Intn(150)
					gen = inArcsOnly{graph.NewDigraphSource(randDigraph(rng, n, rng.Intn(3*n)))}
				}
				csr := digraphFlood(graph.MaterializeSource(gen))
				n := gen.N()

				lanes := 1 + rng.Intn(PackedLanes)
				sources := make([]int, lanes)
				for i := range sources {
					sources[i] = rng.Intn(n)
				}
				ref := NewPackedFrontier(n)
				ref.Reset(sources)
				got := NewPackedFrontier(n)
				got.Reset(sources)
				fg := graph.NewFloodGen(gen)

				for round := 1; ; round++ {
					wc, wch, wi := ref.StepFloodGen(csr)
					gc, gch, gi := got.StepFloodGen(fg)
					if gc != wc || gch != wch || gi != wi {
						t.Fatalf("trial %d round %d: gen step (%x, %x, %d), CSR (%x, %x, %d)",
							trial, round, gc, gch, gi, wc, wch, wi)
					}
					for v := 0; v < n; v++ {
						for lane := 0; lane < lanes; lane++ {
							if got.Informed(v, lane) != ref.Informed(v, lane) {
								t.Fatalf("trial %d round %d: vertex %d lane %d diverged", trial, round, v, lane)
							}
						}
					}
					if wch == 0 {
						break
					}
				}
				if tc.gen != nil {
					break // deterministic generator: one trial suffices
				}
			}
		})
	}
}

// TestStepFloodGenRangeSharded: stepping a round as disjoint vertex-range
// shards plus one CommitStep must equal the single-range step, with the
// round results AND/OR/sum-folded across shards.
func TestStepFloodGenRangeSharded(t *testing.T) {
	gen := topology.NewHypercubeGen(7)
	n := gen.N()
	sources := []int{0, 1, 31, 100, 127}
	ref := NewPackedFrontier(n)
	ref.Reset(sources)
	got := NewPackedFrontier(n)
	got.Reset(sources)
	refFg := graph.NewFloodGen(gen)
	shards := []int{0, 13, 64, 65, 128} // uneven on purpose
	fgs := make([]*graph.FloodGen, len(shards)-1)
	for i := range fgs {
		fgs[i] = graph.NewFloodGen(gen)
	}
	for round := 1; ; round++ {
		wc, wch, wi := ref.StepFloodGen(refFg)
		and := ^uint64(0)
		var ch uint64
		informed := 0
		for i := 0; i+1 < len(shards); i++ {
			a, c, inf := got.StepFloodGenRange(fgs[i], shards[i], shards[i+1])
			and &= a
			ch |= c
			informed += inf
		}
		got.CommitStep()
		gc, gch := and&got.Full(), ch&got.Full()
		if gc != wc || gch != wch || informed != wi {
			t.Fatalf("round %d: sharded (%x, %x, %d), whole (%x, %x, %d)",
				round, gc, gch, informed, wc, wch, wi)
		}
		if wch == 0 {
			break
		}
	}
}

// TestStepGenZeroAlloc pins the flood step's zero-allocation contract on
// a generator's fast path and on the InArcs path at runtime (gossipvet
// hotalloc enforces it statically).
func TestStepGenZeroAlloc(t *testing.T) {
	gen := topology.NewHypercubeGen(8)
	n := gen.N()
	fg := graph.NewFloodGen(gen)
	pf := NewPackedFrontier(n)
	sources := make([]int, PackedLanes)
	for i := range sources {
		sources[i] = i
	}
	pf.Reset(sources)
	if allocs := testing.AllocsPerRun(100, func() {
		pf.StepFloodGen(fg)
	}); allocs != 0 {
		t.Fatalf("StepFloodGen allocated %.1f times per step, want 0", allocs)
	}
	// The InArcs slow path, via a digraph with its gatherer hidden.
	slow := graph.NewFloodGen(inArcsOnly{graph.NewDigraphSource(graph.MaterializeSource(gen))})
	if allocs := testing.AllocsPerRun(100, func() {
		pf.StepFloodGen(slow)
	}); allocs != 0 {
		t.Fatalf("StepFloodGen (InArcs path) allocated %.1f times per step, want 0", allocs)
	}
}
