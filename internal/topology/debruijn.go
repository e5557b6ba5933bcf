package topology

import "repro/internal/graph"

// DeBruijn holds DB(d,D): vertices are the d^D base-d words of length D, and
// vertex x_{D-1}…x_0 has an arc toward the d vertices x_{D-2}…x_0·β (shift
// left, append β). G is DeBruijnGen, materialized.
//
// Deviation from the raw definition: the de Bruijn digraph formally contains
// a self-loop at each constant word (β equal to the repeated digit). Loops
// carry no information in gossip, so the generator omits them; this is the
// standard convention for communication networks and does not affect any
// bound (the paper's model digraphs have no use for loops either).
type DeBruijn struct {
	G        *graph.Digraph
	D, d     int
	directed bool
}

// NewDeBruijnDigraph constructs the directed DB→(d,D) without self-loops.
func NewDeBruijnDigraph(d, D int) *DeBruijn {
	return newDB(d, D, true)
}

// NewDeBruijn constructs the undirected de Bruijn graph DB(d,D): the
// symmetric closure of the digraph (again without loops).
func NewDeBruijn(d, D int) *DeBruijn {
	return newDB(d, D, false)
}

func newDB(d, D int, directed bool) *DeBruijn {
	return &DeBruijn{G: graph.MaterializeSource(NewDeBruijnGen(d, D, directed)), D: D, d: d, directed: directed}
}

// Directed reports whether db is the directed de Bruijn digraph.
func (db *DeBruijn) Directed() bool { return db.directed }

// ID returns the vertex id of word x.
func (db *DeBruijn) ID(x Word) int { return WordValue(x, db.d) }

// Label returns the word of a vertex id.
func (db *DeBruijn) Label(id int) Word { return ValueWord(id, db.d, db.D) }
