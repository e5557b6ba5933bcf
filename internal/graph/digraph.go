// Package graph implements the directed-graph substrate of the reproduction:
// digraphs with arc-level queries, breadth-first distances, diameters,
// set-to-set distances (for separator verification), matching checks (the
// whispering model's per-round constraint) and greedy proper edge coloring
// (used to build periodic gossip protocols in the style of
// Liestman–Richards).
package graph

import (
	"fmt"
	"slices"
	"sync"
)

// Arc is a directed communication link from From to To.
type Arc struct {
	From, To int
}

// Digraph is a simple directed graph on vertices 0..n-1. Self-loops and
// parallel arcs are rejected at insertion. The networks of the paper are
// modeled as digraphs; an undirected (half/full-duplex capable) network is a
// symmetric digraph containing both orientations of every edge.
//
// Adjacency lists are kept sorted at insertion, so traversal order is
// deterministic and no query writes to the digraph: once built, a Digraph
// is safe for concurrent reads. AddArc costs O(log deg) to find the slot
// plus the shift of any larger neighbors; the topology builders emit each
// vertex's arcs in ascending order, so in practice it appends.
type Digraph struct {
	n   int
	m   int
	out [][]int
	in  [][]int

	// Diameter memo: diamVal is valid for a graph with diamArcs-1 arcs
	// (0 = never computed). Guarded by diamMu so concurrent sessions sharing
	// one built network (the serving layer does) pay the all-pairs BFS once.
	diamMu   sync.Mutex
	diamVal  int
	diamArcs int
}

// New returns an empty digraph with n vertices.
//
//gossip:allowpanic range guard: indices come from trusted topology constructions
func New(n int) *Digraph {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative vertex count %d", n))
	}
	return &Digraph{
		n:   n,
		out: make([][]int, n),
		in:  make([][]int, n),
	}
}

// N returns the number of vertices.
func (g *Digraph) N() int { return g.n }

// M returns the number of arcs.
func (g *Digraph) M() int { return g.m }

// AddArc inserts the arc u→v. It panics on self-loops, out-of-range vertices
// or duplicate arcs: topology generators are deterministic and a duplicate
// indicates a construction bug worth failing loudly on.
//
//gossip:allowpanic range guard: indices come from trusted topology constructions
func (g *Digraph) AddArc(u, v int) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: arc (%d,%d) out of range n=%d", u, v, g.n))
	}
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at %d", u))
	}
	out, fresh := insertSorted(g.out[u], v)
	if !fresh {
		panic(fmt.Sprintf("graph: duplicate arc (%d,%d)", u, v))
	}
	g.out[u] = out
	g.in[v], _ = insertSorted(g.in[v], u)
	g.m++
}

// insertSorted inserts x into the ascending slice s, reporting false (and
// leaving s as is) when x is already present. Ascending insertions, the
// topology builders' order, take the append fast path.
func insertSorted(s []int, x int) ([]int, bool) {
	if k := len(s); k == 0 || s[k-1] < x {
		return append(s, x), true
	}
	i, found := slices.BinarySearch(s, x)
	if found {
		return s, false
	}
	return slices.Insert(s, i, x), true
}

// AddEdge inserts both u→v and v→u.
func (g *Digraph) AddEdge(u, v int) {
	g.AddArc(u, v)
	g.AddArc(v, u)
}

// HasArc reports whether u→v is present.
func (g *Digraph) HasArc(u, v int) bool {
	if u < 0 || u >= g.n {
		return false
	}
	_, ok := slices.BinarySearch(g.out[u], v)
	return ok
}

// Out returns the out-neighbors of u in ascending order. The returned
// slice must not be modified.
func (g *Digraph) Out(u int) []int { return g.out[u] }

// In returns the in-neighbors of u in ascending order. The returned slice
// must not be modified.
func (g *Digraph) In(u int) []int { return g.in[u] }

// OutDeg returns the out-degree of u.
func (g *Digraph) OutDeg(u int) int { return len(g.out[u]) }

// InDeg returns the in-degree of u.
func (g *Digraph) InDeg(u int) int { return len(g.in[u]) }

// MaxOutDeg returns the maximum out-degree over all vertices.
func (g *Digraph) MaxOutDeg() int {
	max := 0
	for u := 0; u < g.n; u++ {
		if d := len(g.out[u]); d > max {
			max = d
		}
	}
	return max
}

// MaxDeg returns the maximum total degree (in + out) over all vertices. For
// a symmetric digraph this is twice the underlying undirected degree.
func (g *Digraph) MaxDeg() int {
	max := 0
	for u := 0; u < g.n; u++ {
		if d := len(g.out[u]) + len(g.in[u]); d > max {
			max = d
		}
	}
	return max
}

// Arcs returns all arcs in deterministic (sorted) order.
func (g *Digraph) Arcs() []Arc {
	arcs := make([]Arc, 0, g.m)
	for u, vs := range g.out {
		for _, v := range vs {
			arcs = append(arcs, Arc{u, v})
		}
	}
	return arcs
}

// Edges returns the undirected edges {u,v} with u < v for which both
// orientations are present, in sorted order.
func (g *Digraph) Edges() []Arc {
	var edges []Arc
	for u, vs := range g.out {
		for _, v := range vs {
			if u < v && g.HasArc(v, u) {
				edges = append(edges, Arc{u, v})
			}
		}
	}
	return edges
}

// IsSymmetric reports whether every arc's opposite is present, i.e. whether
// g models an undirected network.
func (g *Digraph) IsSymmetric() bool {
	for u := range g.out {
		if !slices.Equal(g.out[u], g.in[u]) {
			return false
		}
	}
	return true
}

// SymmetricClosure returns a new digraph with the opposite of every arc
// added (when missing).
func (g *Digraph) SymmetricClosure() *Digraph {
	c := New(g.n)
	for _, a := range g.Arcs() {
		if !c.HasArc(a.From, a.To) {
			c.AddArc(a.From, a.To)
		}
		if !c.HasArc(a.To, a.From) {
			c.AddArc(a.To, a.From)
		}
	}
	return c
}

// Reverse returns the digraph with every arc reversed.
func (g *Digraph) Reverse() *Digraph {
	r := New(g.n)
	for _, a := range g.Arcs() {
		r.AddArc(a.To, a.From)
	}
	return r
}
