package gossip

import (
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// randDigraph builds a random digraph that is usually (but not necessarily)
// strongly connected: a directed cycle plus extra random arcs.
func randDigraph(rng *rand.Rand, n, extra int) *graph.Digraph {
	g := graph.New(n)
	for v := 0; v < n; v++ {
		g.AddArc(v, (v+1)%n)
	}
	for i := 0; i < extra; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && !g.HasArc(u, v) {
			g.AddArc(u, v)
		}
	}
	return g
}

// floodArcs expands the flooding round of g — every arc, listed
// destination-major — into the explicit arc slice the scalar reference
// frontier steps.
func floodArcs(g *graph.Digraph) []graph.Arc {
	arcs := make([]graph.Arc, 0, g.M())
	for v := 0; v < g.N(); v++ {
		for _, u := range g.In(v) {
			arcs = append(arcs, graph.Arc{From: u, To: v})
		}
	}
	return arcs
}

// digraphFlood returns a flood-step view of g's in-neighbor CSR.
func digraphFlood(g *graph.Digraph) *graph.FloodGen {
	return graph.NewFloodGen(graph.NewDigraphSource(g))
}

// TestPackedFloodMatchesFrontier: a packed pass over a digraph's
// in-neighbor CSR must track 64 independent scalar frontier floods bit for bit —
// per round, per vertex, per lane — including the complete and changed
// masks it reports.
func TestPackedFloodMatchesFrontier(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(150)
		g := randDigraph(rng, n, rng.Intn(3*n))
		fg := digraphFlood(g)
		flood := floodArcs(g)

		lanes := 1 + rng.Intn(PackedLanes)
		if trial == 0 {
			lanes = PackedLanes // always cover the full-width mask path
		}
		sources := make([]int, lanes)
		for i := range sources {
			sources[i] = rng.Intn(n)
		}

		pf := NewPackedFrontier(n)
		pf.Reset(sources)
		refs := make([]*FrontierState, lanes)
		for i, s := range sources {
			refs[i] = NewFrontierState(n, s)
		}
		if got, want := pf.InformedCount(), lanes; got != want {
			t.Fatalf("trial %d: initial informed count %d, want %d", trial, got, want)
		}

		for round := 1; round <= n+1; round++ {
			complete, changed, informed := pf.StepFloodGen(fg)
			var wantComplete, wantChanged uint64
			wantInformed := 0
			for i, ref := range refs {
				if ref.Step(flood) > 0 {
					wantChanged |= 1 << i
				}
				if ref.Complete() {
					wantComplete |= 1 << i
				}
				wantInformed += ref.InformedCount()
			}
			if complete != wantComplete || changed != wantChanged || informed != wantInformed {
				t.Fatalf("trial %d round %d: (complete, changed, informed) = (%x, %x, %d), want (%x, %x, %d)",
					trial, round, complete, changed, informed, wantComplete, wantChanged, wantInformed)
			}
			for v := 0; v < n; v++ {
				for i, ref := range refs {
					if pf.Informed(v, i) != ref.Informed(v) {
						t.Fatalf("trial %d round %d: vertex %d lane %d informed=%v, scalar %v",
							trial, round, v, i, pf.Informed(v, i), ref.Informed(v))
					}
				}
			}
			if changed == 0 {
				break // every lane at its fixpoint
			}
		}
		if pf.CompleteMask() != pf.Full()&func() uint64 {
			var m uint64
			for i, ref := range refs {
				if ref.Complete() {
					m |= 1 << i
				}
			}
			return m
		}() {
			t.Fatalf("trial %d: CompleteMask disagrees with scalar completion", trial)
		}
	}
}

// TestPackedFrontierReset: one PackedFrontier reused across batches starts
// every batch from exactly the batch's source bits, with stale lanes and
// stale knowledge cleared.
func TestPackedFrontierReset(t *testing.T) {
	g := randDigraph(rand.New(rand.NewSource(1)), 40, 60)
	fg := digraphFlood(g)
	pf := NewPackedFrontier(40)

	pf.Reset([]int{0, 1, 2, 3, 4, 5, 6, 7})
	for pf.CompleteMask() != pf.Full() {
		if _, changed, _ := pf.StepFloodGen(fg); changed == 0 {
			t.Fatal("first batch stalled on a cycle-bearing digraph")
		}
	}

	pf.Reset([]int{9, 9}) // duplicate sources share a column pattern
	if pf.Lanes() != 2 || pf.Full() != 0b11 {
		t.Fatalf("after Reset: lanes=%d full=%x", pf.Lanes(), pf.Full())
	}
	if got := pf.InformedCount(); got != 2 {
		t.Fatalf("after Reset: informed count %d, want 2 (stale knowledge leaked)", got)
	}
	for v := 0; v < 40; v++ {
		want := v == 9
		if pf.Informed(v, 0) != want || pf.Informed(v, 1) != want {
			t.Fatalf("after Reset: vertex %d informed (%v, %v), want %v", v, pf.Informed(v, 0), pf.Informed(v, 1), want)
		}
	}
	// Both lanes flood identically from vertex 9.
	for {
		complete, changed, _ := pf.StepFloodGen(fg)
		if b0, b1 := complete&1 != 0, complete&2 != 0; b0 != b1 {
			t.Fatal("duplicate-source lanes diverged")
		}
		if complete == pf.Full() || changed == 0 {
			break
		}
	}
}

// TestPackedStepZeroAlloc pins the packed step's zero-allocation contract
// over a digraph's CSR gather (the gossipvet hotalloc analyzer enforces it
// statically; this pins the runtime behavior).
func TestPackedStepZeroAlloc(t *testing.T) {
	g := randDigraph(rand.New(rand.NewSource(2)), 256, 512)
	fg := digraphFlood(g)
	pf := NewPackedFrontier(256)
	sources := make([]int, PackedLanes)
	for i := range sources {
		sources[i] = i
	}
	pf.Reset(sources)
	allocs := testing.AllocsPerRun(100, func() {
		pf.StepFloodGen(fg)
	})
	if allocs != 0 {
		t.Fatalf("StepFloodGen allocated %.1f times per step, want 0", allocs)
	}
}

// TestPackedCompletionRoundsAreEccentricities: on a strongly connected
// digraph, the round at which lane s completes is exactly the eccentricity
// of its source — the semantic content of the flooding schedule.
func TestPackedCompletionRoundsAreEccentricities(t *testing.T) {
	g := randDigraph(rand.New(rand.NewSource(3)), 70, 140)
	fg := digraphFlood(g)
	sources := make([]int, 64)
	for i := range sources {
		sources[i] = i
	}
	pf := NewPackedFrontier(70)
	pf.Reset(sources)
	completeAt := make([]int, 64)
	var done uint64
	for round := 1; done != pf.Full(); round++ {
		complete, changed, _ := pf.StepFloodGen(fg)
		for m := complete &^ done; m != 0; m &= m - 1 {
			completeAt[bits.TrailingZeros64(m)] = round
		}
		done |= complete
		if changed == 0 && done != pf.Full() {
			t.Fatal("stalled: digraph not strongly connected for these sources")
		}
	}
	for i, s := range sources {
		if ecc := g.Eccentricity(s); completeAt[i] != ecc {
			t.Errorf("lane %d (source %d): completed at round %d, eccentricity %d", i, s, completeAt[i], ecc)
		}
	}
}
