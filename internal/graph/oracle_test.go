package graph_test

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/systolic"
)

// mapDigraph is the reference digraph the differential tests pin
// graph.Digraph against: arcs live in a hash set, adjacency lists keep
// insertion order until a query sorts them, and every query answers from
// the set. It is deliberately the simplest correct representation, not a
// fast one.
type mapDigraph struct {
	n       int
	out, in [][]int
	arcSet  map[graph.Arc]struct{}
	sorted  bool
}

func newMapDigraph(n int) *mapDigraph {
	return &mapDigraph{
		n:      n,
		out:    make([][]int, n),
		in:     make([][]int, n),
		arcSet: make(map[graph.Arc]struct{}),
	}
}

func (g *mapDigraph) M() int { return len(g.arcSet) }

func (g *mapDigraph) AddArc(u, v int) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: arc (%d,%d) out of range n=%d", u, v, g.n))
	}
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at %d", u))
	}
	a := graph.Arc{From: u, To: v}
	if _, dup := g.arcSet[a]; dup {
		panic(fmt.Sprintf("graph: duplicate arc (%d,%d)", u, v))
	}
	g.arcSet[a] = struct{}{}
	g.out[u] = append(g.out[u], v)
	g.in[v] = append(g.in[v], u)
	g.sorted = false
}

func (g *mapDigraph) HasArc(u, v int) bool {
	_, ok := g.arcSet[graph.Arc{From: u, To: v}]
	return ok
}

func (g *mapDigraph) sortAdj() {
	if g.sorted {
		return
	}
	for u := 0; u < g.n; u++ {
		sort.Ints(g.out[u])
		sort.Ints(g.in[u])
	}
	g.sorted = true
}

func (g *mapDigraph) Out(u int) []int { g.sortAdj(); return g.out[u] }
func (g *mapDigraph) In(u int) []int  { g.sortAdj(); return g.in[u] }

func (g *mapDigraph) MaxOutDeg() int {
	best := 0
	for u := 0; u < g.n; u++ {
		best = max(best, len(g.out[u]))
	}
	return best
}

func (g *mapDigraph) MaxDeg() int {
	best := 0
	for u := 0; u < g.n; u++ {
		best = max(best, len(g.out[u])+len(g.in[u]))
	}
	return best
}

func sortArcs(arcs []graph.Arc) []graph.Arc {
	sort.Slice(arcs, func(i, j int) bool {
		if arcs[i].From != arcs[j].From {
			return arcs[i].From < arcs[j].From
		}
		return arcs[i].To < arcs[j].To
	})
	return arcs
}

func (g *mapDigraph) Arcs() []graph.Arc {
	arcs := make([]graph.Arc, 0, len(g.arcSet))
	for a := range g.arcSet {
		arcs = append(arcs, a)
	}
	return sortArcs(arcs)
}

func (g *mapDigraph) Edges() []graph.Arc {
	var edges []graph.Arc
	for a := range g.arcSet {
		if a.From < a.To && g.HasArc(a.To, a.From) {
			edges = append(edges, a)
		}
	}
	return sortArcs(edges)
}

func (g *mapDigraph) IsSymmetric() bool {
	for a := range g.arcSet {
		if !g.HasArc(a.To, a.From) {
			return false
		}
	}
	return true
}

func (g *mapDigraph) SymmetricClosure() *mapDigraph {
	c := newMapDigraph(g.n)
	for a := range g.arcSet {
		if !c.HasArc(a.From, a.To) {
			c.AddArc(a.From, a.To)
		}
		if !c.HasArc(a.To, a.From) {
			c.AddArc(a.To, a.From)
		}
	}
	return c
}

func (g *mapDigraph) Reverse() *mapDigraph {
	r := newMapDigraph(g.n)
	for a := range g.arcSet {
		r.AddArc(a.To, a.From)
	}
	return r
}

func (g *mapDigraph) BFS(src int) []int {
	g.sortAdj()
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = graph.Unreached
	}
	dist[src] = 0
	queue := []int{src}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range g.out[u] {
			if dist[v] == graph.Unreached {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

func (g *mapDigraph) Diameter() int {
	diam := 0
	for u := 0; u < g.n; u++ {
		for _, d := range g.BFS(u) {
			if d == graph.Unreached {
				return graph.Unreached
			}
			diam = max(diam, d)
		}
	}
	return diam
}

// oracleFromArcs rebuilds the reference digraph from g's arc list.
func oracleFromArcs(g *graph.Digraph) *mapDigraph {
	o := newMapDigraph(g.N())
	for _, a := range g.Arcs() {
		o.AddArc(a.From, a.To)
	}
	return o
}

// panicMessage runs f and returns the message it panicked with, or "" when
// it returned normally.
func panicMessage(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// compareWithOracle fails t unless g and o answer every query identically.
// Reverse and SymmetricClosure are compared one level deep. The exhaustive
// form asks HasArc of every vertex pair and compares diameters; otherwise,
// for instances too large for quadratic work, HasArc is asked of every arc,
// its reversal and random pairs, and BFS runs from three sources.
func compareWithOracle(t *testing.T, g *graph.Digraph, o *mapDigraph, exhaustive bool) {
	t.Helper()
	if g.N() != o.n || g.M() != o.M() {
		t.Fatalf("size: got n=%d m=%d, oracle n=%d m=%d", g.N(), g.M(), o.n, o.M())
	}
	compareArcLists(t, g, o)
	if got, want := g.IsSymmetric(), o.IsSymmetric(); got != want {
		t.Errorf("IsSymmetric: got %v, oracle %v", got, want)
	}
	if got, want := g.MaxOutDeg(), o.MaxOutDeg(); got != want {
		t.Errorf("MaxOutDeg: got %d, oracle %d", got, want)
	}
	if got, want := g.MaxDeg(), o.MaxDeg(); got != want {
		t.Errorf("MaxDeg: got %d, oracle %d", got, want)
	}
	for u := 0; u < g.N(); u++ {
		if !slices.Equal(g.Out(u), o.Out(u)) {
			t.Fatalf("Out(%d): got %v, oracle %v", u, g.Out(u), o.Out(u))
		}
		if !slices.Equal(g.In(u), o.In(u)) {
			t.Fatalf("In(%d): got %v, oracle %v", u, g.In(u), o.In(u))
		}
	}
	hasArc := func(u, v int) {
		if got, want := g.HasArc(u, v), o.HasArc(u, v); got != want {
			t.Fatalf("HasArc(%d,%d): got %v, oracle %v", u, v, got, want)
		}
	}
	if exhaustive {
		for u := 0; u < g.N(); u++ {
			for v := 0; v < g.N(); v++ {
				hasArc(u, v)
			}
		}
		if got, want := g.Diameter(), o.Diameter(); got != want {
			t.Errorf("Diameter: got %d, oracle %d", got, want)
		}
	} else {
		for _, a := range g.Arcs() {
			hasArc(a.From, a.To)
			hasArc(a.To, a.From)
		}
		rng := rand.New(rand.NewPCG(uint64(g.N()), uint64(g.M())))
		for i := 0; i < 4096; i++ {
			hasArc(rng.IntN(g.N()), rng.IntN(g.N()))
		}
		for _, s := range []int{0, g.N() / 3, g.N() - 1} {
			if !slices.Equal(g.BFS(s), o.BFS(s)) {
				t.Fatalf("BFS(%d) differs from the oracle", s)
			}
		}
	}
	r, ro := g.Reverse(), o.Reverse()
	if r.M() != ro.M() {
		t.Fatalf("Reverse: got m=%d, oracle m=%d", r.M(), ro.M())
	}
	compareArcLists(t, r, ro)
	s, so := g.SymmetricClosure(), o.SymmetricClosure()
	if s.M() != so.M() || !s.IsSymmetric() {
		t.Fatalf("SymmetricClosure: got m=%d symmetric=%v, oracle m=%d", s.M(), s.IsSymmetric(), so.M())
	}
	compareArcLists(t, s, so)
}

func compareArcLists(t *testing.T, g *graph.Digraph, o *mapDigraph) {
	t.Helper()
	if got, want := g.Arcs(), o.Arcs(); !slices.Equal(got, want) {
		t.Fatalf("Arcs: got %d arcs, oracle %d (or order differs)", len(got), len(want))
	}
	if got, want := g.Edges(), o.Edges(); !slices.Equal(got, want) {
		t.Fatalf("Edges: got %d edges, oracle %d (or order differs)", len(got), len(want))
	}
}

// TestDigraphMatchesOracleRandom feeds identical seeded insertion
// sequences to graph.Digraph and the map oracle. Each sequence mixes fresh
// arcs with duplicates, self-loops and out-of-range ids, and is replayed in
// its random order, ascending and descending: every AddArc must panic with
// the same message (or not at all) on both, and every query must agree.
func TestDigraphMatchesOracleRandom(t *testing.T) {
	rng := rand.New(rand.NewPCG(14, 2))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.IntN(64)
		var ops []graph.Arc
		for len(ops) < 4*n {
			switch k := rng.IntN(20); {
			case k == 0:
				v := rng.IntN(n)
				ops = append(ops, graph.Arc{From: v, To: v})
			case k == 1:
				ops = append(ops, graph.Arc{From: rng.IntN(n+4) - 2, To: rng.IntN(n+4) - 2})
			case k == 2 && len(ops) > 0:
				ops = append(ops, ops[rng.IntN(len(ops))])
			default:
				ops = append(ops, graph.Arc{From: rng.IntN(n), To: rng.IntN(n)})
			}
		}
		ascending := sortArcs(slices.Clone(ops))
		descending := slices.Clone(ascending)
		slices.Reverse(descending)
		orders := map[string][]graph.Arc{"random": ops, "ascending": ascending, "descending": descending}
		for name, seq := range orders {
			t.Run(fmt.Sprintf("trial%d/%s", trial, name), func(t *testing.T) {
				g, o := graph.New(n), newMapDigraph(n)
				for i, a := range seq {
					got := panicMessage(func() { g.AddArc(a.From, a.To) })
					want := panicMessage(func() { o.AddArc(a.From, a.To) })
					if got != want {
						t.Fatalf("op %d AddArc(%d,%d): panic %q, oracle %q", i, a.From, a.To, got, want)
					}
					if g.M() != o.M() {
						t.Fatalf("op %d: M=%d, oracle %d", i, g.M(), o.M())
					}
					if i == len(seq)/2 {
						// Warm the diameter memo mid-build: the final
						// comparison then also checks its invalidation.
						if got, want := g.Diameter(), o.Diameter(); got != want {
							t.Fatalf("op %d: Diameter=%d, oracle %d", i, got, want)
						}
					}
				}
				compareWithOracle(t, g, o, true)
			})
		}
	}
}

// kindSizes lists the two smallest parameterizations of every registered
// kind.
var kindSizes = map[string][2][]systolic.Param{
	"path":             {{systolic.Nodes(1)}, {systolic.Nodes(2)}},
	"cycle":            {{systolic.Nodes(3)}, {systolic.Nodes(4)}},
	"complete":         {{systolic.Nodes(1)}, {systolic.Nodes(2)}},
	"hypercube":        {{systolic.Dimension(1)}, {systolic.Dimension(2)}},
	"grid":             {{systolic.Rows(1), systolic.Cols(1)}, {systolic.Rows(1), systolic.Cols(2)}},
	"torus":            {{systolic.Rows(3), systolic.Cols(3)}, {systolic.Rows(3), systolic.Cols(4)}},
	"tree":             {{systolic.Degree(1), systolic.Depth(0)}, {systolic.Degree(1), systolic.Depth(1)}},
	"shuffle-exchange": {{systolic.Dimension(2)}, {systolic.Dimension(3)}},
	"ccc":              {{systolic.Dimension(3)}, {systolic.Dimension(4)}},
	"butterfly":        {{systolic.Degree(2), systolic.Diameter(1)}, {systolic.Degree(2), systolic.Diameter(2)}},
	"wbf":              {{systolic.Degree(2), systolic.Diameter(2)}, {systolic.Degree(2), systolic.Diameter(3)}},
	"wbf-digraph":      {{systolic.Degree(2), systolic.Diameter(2)}, {systolic.Degree(2), systolic.Diameter(3)}},
	"debruijn":         {{systolic.Degree(2), systolic.Diameter(2)}, {systolic.Degree(2), systolic.Diameter(3)}},
	"debruijn-digraph": {{systolic.Degree(2), systolic.Diameter(2)}, {systolic.Degree(2), systolic.Diameter(3)}},
	"kautz":            {{systolic.Degree(2), systolic.Diameter(2)}, {systolic.Degree(2), systolic.Diameter(3)}},
	"kautz-digraph":    {{systolic.Degree(2), systolic.Diameter(2)}, {systolic.Degree(2), systolic.Diameter(3)}},
}

// TestDigraphMatchesOracleAllKinds rebuilds every registered network in the
// map oracle from its arc list and demands identical answers to every
// query, exhaustively, at the kind's two smallest sizes.
func TestDigraphMatchesOracleAllKinds(t *testing.T) {
	for _, kind := range systolic.Kinds() {
		sizes, ok := kindSizes[kind]
		if !ok {
			t.Errorf("registered kind %q has no oracle coverage — add it to kindSizes", kind)
			continue
		}
		for _, params := range sizes {
			net, err := systolic.New(kind, params...)
			if err != nil {
				t.Fatalf("%s: %v", kind, err)
			}
			t.Run(fmt.Sprintf("%s/%d", kind, net.N()), func(t *testing.T) {
				compareWithOracle(t, net.G, oracleFromArcs(net.G), true)
			})
		}
	}
}

// TestDigraphMatchesOracleLarge runs the oracle comparison on the directed
// de Bruijn network DB->(2,16): 2^16 vertices, asymmetric, so Reverse and
// SymmetricClosure both change the arc set. HasArc is sampled and the
// all-pairs diameter is replaced by BFS from three sources, which the
// equal adjacency lists already determine. Skipped under -short.
func TestDigraphMatchesOracleLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("2^16-vertex oracle rebuild")
	}
	net, err := systolic.New("debruijn-digraph", systolic.Degree(2), systolic.Diameter(16))
	if err != nil {
		t.Fatal(err)
	}
	if net.N() < 1<<16 || net.G.IsSymmetric() {
		t.Fatalf("%s: n=%d symmetric=%v, want ≥ 2^16 vertices and asymmetric", net.Name, net.N(), net.G.IsSymmetric())
	}
	compareWithOracle(t, net.G, oracleFromArcs(net.G), false)
}
