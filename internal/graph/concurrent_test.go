package graph_test

import (
	"math/bits"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/topology"
)

// TestConcurrentFirstTraversals shares one freshly built, never-traversed
// hypercube between goroutines whose very first calls are traversals. A
// built digraph is read-only, so under -race this must stay clean with no
// preparatory call, and every traversal must see the finished graph.
func TestConcurrentFirstTraversals(t *testing.T) {
	const dim = 8
	g := topology.Hypercube(dim)
	n := g.N()
	checkDist := func(src int, dist []int) {
		for v, d := range dist {
			if want := bits.OnesCount(uint(src ^ v)); d != want {
				t.Errorf("distance %d→%d = %d, want %d", src, v, d, want)
				return
			}
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			src := (w * 37) % n
			switch w % 5 {
			case 0:
				checkDist(src, g.BFS(src))
			case 1:
				if d := g.DiameterParallel(); d != dim {
					t.Errorf("DiameterParallel = %d, want %d", d, dim)
				}
			case 2:
				checkDist(src, g.WeightedDistances(src, graph.UnitWeights(g)))
			case 3:
				if s := graph.NewDigraphSource(g); s.N() != n || s.DegBound() != dim {
					t.Errorf("DigraphSource: n=%d deg=%d, want %d, %d", s.N(), s.DegBound(), n, dim)
				}
			case 4:
				if arcs := g.Arcs(); len(arcs) != n*dim {
					t.Errorf("Arcs: %d arcs, want %d", len(arcs), n*dim)
				}
			}
		}()
	}
	wg.Wait()
}
