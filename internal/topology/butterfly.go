package topology

import (
	"fmt"

	"repro/internal/graph"
)

// Butterfly holds the (unwrapped) Butterfly BF(d,D) of the paper: vertices
// are pairs (x, l) with x a D-digit base-d word and level l ∈ {0,…,D}. A
// vertex (x, l) with l > 0 is joined with pairwise opposite arcs (i.e. an
// undirected edge) to the d vertices obtained by replacing digit x_{l-1}
// with any β and decreasing the level, so n = (D+1)·d^D.
type Butterfly struct {
	G    *graph.Digraph
	D, d int
}

// NewButterfly constructs BF(d,D): ButterflyGen, materialized.
func NewButterfly(d, D int) *Butterfly {
	return &Butterfly{G: graph.MaterializeSource(NewButterflyGen(d, D)), D: D, d: d}
}

// ID returns the vertex id of (x, l).
//
//gossip:allowpanic parameter guard: the systolic registry validates topology parameters before building
func (b *Butterfly) ID(x Word, l int) int {
	if l < 0 || l > b.D {
		panic(fmt.Sprintf("topology: BF level %d out of range [0,%d]", l, b.D))
	}
	return l*pow(b.d, b.D) + WordValue(x, b.d)
}

// Label returns (x, l) for a vertex id.
func (b *Butterfly) Label(id int) (Word, int) {
	dD := pow(b.d, b.D)
	return ValueWord(id%dD, b.d, b.D), id / dD
}

// WrappedButterfly holds WBF(d,D): vertices (x, l) with l ∈ {0,…,D−1} and
// n = D·d^D. In the directed version, (x, l) has an arc toward the d
// vertices obtained by replacing digit x_{l'} with any β where
// l' = (l−1) mod D is the next (lower, wrapping) level. The undirected
// Wrapped Butterfly graph is the symmetric closure.
type WrappedButterfly struct {
	G        *graph.Digraph
	D, d     int
	directed bool
}

// NewWrappedButterflyDigraph constructs the directed WBF→(d,D).
func NewWrappedButterflyDigraph(d, D int) *WrappedButterfly {
	return newWBF(d, D, true)
}

// NewWrappedButterfly constructs the undirected WBF(d,D) (symmetric closure
// of the digraph).
func NewWrappedButterfly(d, D int) *WrappedButterfly {
	return newWBF(d, D, false)
}

//gossip:allowpanic parameter guard: the systolic registry validates topology parameters before building
func newWBF(d, D int, directed bool) *WrappedButterfly {
	if d < 2 || D < 2 {
		panic(fmt.Sprintf("topology: WBF needs d ≥ 2, D ≥ 2, got d=%d D=%d", d, D))
	}
	w := &WrappedButterfly{D: D, d: d, directed: directed}
	dD := pow(d, D)
	w.G = graph.New(D * dD)
	for l := 0; l < D; l++ {
		lp := ((l-1)%D + D) % D
		for v := 0; v < dD; v++ {
			x := ValueWord(v, d, D)
			for beta := 0; beta < d; beta++ {
				y := x.Clone()
				y[lp] = beta
				from, to := w.ID(x, l), w.ID(y, lp)
				w.G.AddArc(from, to)
			}
		}
	}
	if !directed {
		w.G = w.G.SymmetricClosure()
	}
	return w
}

// Directed reports whether w is the directed WBF→(d,D).
func (w *WrappedButterfly) Directed() bool { return w.directed }

// ID returns the vertex id of (x, l).
//
//gossip:allowpanic parameter guard: the systolic registry validates topology parameters before building
func (w *WrappedButterfly) ID(x Word, l int) int {
	if l < 0 || l >= w.D {
		panic(fmt.Sprintf("topology: WBF level %d out of range [0,%d)", l, w.D))
	}
	return l*pow(w.d, w.D) + WordValue(x, w.d)
}

// Label returns (x, l) for a vertex id.
func (w *WrappedButterfly) Label(id int) (Word, int) {
	dD := pow(w.d, w.D)
	return ValueWord(id%dD, w.d, w.D), id / dD
}
