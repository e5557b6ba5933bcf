package topology

import (
	"fmt"

	"repro/internal/graph"
)

// Kautz holds K(d,D): vertices are the (d+1)·d^(D-1) words of length D over
// an alphabet of d+1 symbols in which adjacent digits differ; vertex
// x_{D-1}…x_0 has an arc toward the d vertices x_{D-2}…x_0·β with β ≠ x_0.
// Unlike the de Bruijn digraph, K(d,D) has no self-loops by construction.
// G is KautzGen, materialized, and ID/Label are its rank codec.
type Kautz struct {
	G        *graph.Digraph
	D, d     int
	directed bool
	gen      *KautzGen
}

// NewKautzDigraph constructs the directed K→(d,D).
func NewKautzDigraph(d, D int) *Kautz {
	return newKautz(d, D, true)
}

// NewKautz constructs the undirected Kautz graph (symmetric closure).
func NewKautz(d, D int) *Kautz {
	return newKautz(d, D, false)
}

func newKautz(d, D int, directed bool) *Kautz {
	gen := NewKautzGen(d, D, directed)
	return &Kautz{G: graph.MaterializeSource(gen), D: D, d: d, directed: directed, gen: gen}
}

// Directed reports whether k is the directed Kautz digraph.
func (k *Kautz) Directed() bool { return k.directed }

// N returns the number of vertices, (d+1)·d^(D-1).
func (k *Kautz) N() int { return k.gen.N() }

// ID returns the vertex id of word x, or -1 if x is not a Kautz word.
func (k *Kautz) ID(x Word) int {
	if len(x) != k.D {
		return -1
	}
	var a [64]int
	for i, c := range x {
		if c < 0 || c > k.d || i > 0 && c == x[i-1] {
			return -1
		}
		a[i] = c
	}
	return k.gen.encode(&a)
}

// Label returns the word of a vertex id.
//
//gossip:allowpanic range guard: ids come from iterating the built network's vertices
func (k *Kautz) Label(id int) Word {
	if id < 0 || id >= k.N() {
		panic(fmt.Sprintf("topology: Kautz id %d out of range [0,%d)", id, k.N()))
	}
	var a [64]int
	k.gen.decode(id, &a)
	return append(Word(nil), a[:k.D]...)
}
