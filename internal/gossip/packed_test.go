package gossip

import (
	"math/bits"
	"math/rand"
	"slices"
	"sort"
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
// over a digraph's CSR gather, and the push round's, listing included (the
// gossipvet hotalloc analyzer enforces it statically; this pins the
// runtime behavior).
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

	src := graph.NewDigraphSource(g)
	push := graph.ShardFloodGen(src, graph.ArcScratch(src, 1), 0)
	pushes := 0
	allocs = testing.AllocsPerRun(100, func() {
		pf.Reset(sources[:2])
		for r := 0; r < 3; r++ {
			if pf.Listed() {
				pf.StepFloodPush(&push, 0)
				pushes++
			} else {
				pf.StepFloodGen(fg)
				pf.ListChanged()
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("push rounds allocated %.1f times per batch, want 0", allocs)
	}
	if pushes == 0 {
		t.Fatal("no push round ran")
	}
}

// TestStepFloodPushMatchesPull: pushing from the listed vertices computes
// the pull round bit for bit — triples, words and the list of changed
// vertices — whether the list comes from Reset, from ListChanged after a
// pull round or from the previous push round, on random digraphs with
// duplicate sources and lists that overflow PushCap.
func TestStepFloodPushMatchesPull(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(600)
		g := randDigraph(rng, n, rng.Intn(2*n))
		src := graph.NewDigraphSource(g)
		push := graph.ShardFloodGen(src, graph.ArcScratch(src, 1), 0)
		fg := digraphFlood(g)
		sources := make([]int, 1+rng.Intn(PackedLanes))
		for i := range sources {
			sources[i] = rng.Intn(n)
		}
		got, want := NewPackedFrontier(n), NewPackedFrontier(n)
		got.Reset(sources)
		want.Reset(sources)
		var done uint64
		pushes := 0
		for round := 1; round <= n+1; round++ {
			listed := got.Listed()
			var complete, changed uint64
			var informed int
			if listed {
				var added int
				complete, changed, added = got.StepFloodPush(&push, done)
				informed = want.InformedCount() + added
				pushes++
			} else {
				complete, changed, informed = got.StepFloodGen(fg)
			}
			wc, wch, wi := want.StepFloodGen(fg)
			if complete != wc || changed != wch || informed != wi {
				t.Fatalf("trial %d round %d (push %v): (%x, %x, %d), pull (%x, %x, %d)",
					trial, round, listed, complete, changed, informed, wc, wch, wi)
			}
			for v := range n {
				if got.cur[v] != want.cur[v] {
					t.Fatalf("trial %d round %d (push %v): vertex %d word %x, pull %x", trial, round, listed, v, got.cur[v], want.cur[v])
				}
			}
			if got.Listed() {
				// The list a push round built is exactly the changed
				// vertices, in some order.
				var fromPush []int
				for _, e := range got.ids[:got.listed] {
					fromPush = append(fromPush, int(uint32(e>>got.half)))
				}
				if got.ListChanged(); !got.Listed() {
					t.Fatalf("trial %d round %d: listed %d vertices but ListChanged overflows", trial, round, len(fromPush))
				}
				var fromPass []int
				for _, e := range got.ids[:got.listed] {
					fromPass = append(fromPass, int(uint32(e>>got.half)))
				}
				sort.Ints(fromPush)
				if !slices.Equal(fromPush, fromPass) {
					t.Fatalf("trial %d round %d: push listed %v, changed %v", trial, round, fromPush, fromPass)
				}
			} else if rng.Intn(2) == 0 {
				got.ListChanged()
			}
			done = complete
			if changed == 0 {
				break
			}
		}
		if pushes == 0 && n >= 2*PushDivisor*len(sources) {
			t.Fatalf("trial %d: n=%d, %d sources, no push round", trial, n, len(sources))
		}
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
