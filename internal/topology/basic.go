package topology

import (
	"fmt"

	"repro/internal/graph"
)

// Path returns the undirected path P_n as a symmetric digraph.
func Path(n int) *graph.Digraph {
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

// Cycle returns the undirected cycle C_n (n ≥ 3) as a symmetric digraph:
// CycleGen, materialized.
func Cycle(n int) *graph.Digraph { return graph.MaterializeSource(NewCycleGen(n)) }

// DirectedCycle returns the directed cycle on n ≥ 2 vertices.
//
//gossip:allowpanic parameter guard: the systolic registry validates topology parameters before building
func DirectedCycle(n int) *graph.Digraph {
	if n < 2 {
		panic(fmt.Sprintf("topology: directed cycle needs n ≥ 2, got %d", n))
	}
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddArc(i, (i+1)%n)
	}
	return g
}

// Complete returns the complete graph K_n as a symmetric digraph.
func Complete(n int) *graph.Digraph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(i, j)
		}
	}
	return g
}

// CompleteBipartite returns K_{a,b} as a symmetric digraph; the first a
// vertices form one side.
func CompleteBipartite(a, b int) *graph.Digraph {
	g := graph.New(a + b)
	for i := 0; i < a; i++ {
		for j := 0; j < b; j++ {
			g.AddEdge(i, a+j)
		}
	}
	return g
}

// Grid returns the a×b two-dimensional grid (mesh) as a symmetric digraph;
// vertex (r, c) has id r*b + c.
func Grid(a, b int) *graph.Digraph {
	g := graph.New(a * b)
	id := func(r, c int) int { return r*b + c }
	for r := 0; r < a; r++ {
		for c := 0; c < b; c++ {
			if c+1 < b {
				g.AddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < a {
				g.AddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	return g
}

// Torus returns the a×b two-dimensional torus (both a, b ≥ 3): TorusGen,
// materialized.
func Torus(a, b int) *graph.Digraph { return graph.MaterializeSource(NewTorusGen(a, b)) }

// Hypercube returns the D-dimensional hypercube Q_D on 2^D vertices:
// HypercubeGen, materialized.
func Hypercube(D int) *graph.Digraph { return graph.MaterializeSource(NewHypercubeGen(D)) }

// CompleteKAryTree returns the complete d-ary tree of the given depth
// (depth 0 is a single vertex). Vertices are numbered level by level with
// the root at 0; the parent of vertex v > 0 is (v-1)/d.
//
//gossip:allowpanic parameter guard: the systolic registry validates topology parameters before building
func CompleteKAryTree(d, depth int) *graph.Digraph {
	if d < 1 || depth < 0 {
		panic(fmt.Sprintf("topology: bad tree parameters d=%d depth=%d", d, depth))
	}
	n := 0
	levelSize := 1
	for l := 0; l <= depth; l++ {
		n += levelSize
		levelSize *= d
	}
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.AddEdge((v-1)/d, v)
	}
	return g
}

// Star returns the star K_{1,n-1} with center 0.
func Star(n int) *graph.Digraph {
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.AddEdge(0, v)
	}
	return g
}
