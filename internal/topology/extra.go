package topology

import (
	"fmt"

	"repro/internal/graph"
)

// ShuffleExchange returns the undirected shuffle-exchange network SE(D) on
// 2^D vertices: exchange edges {x, x⊕1} and shuffle edges {x, rotLeft(x)}
// (self-loops at the two constant words omitted, parallel shuffle/exchange
// edges merged).
//
//gossip:allowpanic parameter guard: the systolic registry validates topology parameters before building
func ShuffleExchange(D int) *graph.Digraph {
	if D < 2 {
		panic(fmt.Sprintf("topology: shuffle-exchange needs D ≥ 2, got %d", D))
	}
	n := pow(2, D)
	g := graph.New(n)
	addOnce := func(u, v int) {
		if u != v && !g.HasArc(u, v) {
			g.AddArc(u, v)
			g.AddArc(v, u)
		}
	}
	for v := 0; v < n; v++ {
		addOnce(v, v^1)
		rot := ((v << 1) | (v >> (D - 1))) & (n - 1)
		addOnce(v, rot)
	}
	return g
}

// CCC returns the cube-connected-cycles network CCC(D) on D·2^D vertices
// (D ≥ 3, so that the cycles are simple): CCCGen, materialized.
func CCC(D int) *graph.Digraph { return graph.MaterializeSource(NewCCCGen(D)) }
