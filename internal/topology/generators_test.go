package topology

import (
	"fmt"
	"testing"

	"repro/internal/graph"
)

// genCase pairs an arithmetic generator with the materialized builder it
// must reproduce exactly (vertex numbering and arc set).
type genCase struct {
	name string
	gen  graph.ArcSource
	want *graph.Digraph
}

func genCases() []genCase {
	return []genCase{
		{"hypercube-D1", NewHypercubeGen(1), Hypercube(1)},
		{"hypercube-D4", NewHypercubeGen(4), Hypercube(4)},
		{"hypercube-D7", NewHypercubeGen(7), Hypercube(7)},
		{"cycle-3", NewCycleGen(3), Cycle(3)},
		{"cycle-4", NewCycleGen(4), Cycle(4)},
		{"cycle-17", NewCycleGen(17), Cycle(17)},
		{"torus-3x3", NewTorusGen(3, 3), Torus(3, 3)},
		{"torus-3x5", NewTorusGen(3, 5), Torus(3, 5)},
		{"torus-6x4", NewTorusGen(6, 4), Torus(6, 4)},
		{"ccc-3", NewCCCGen(3), CCC(3)},
		{"ccc-5", NewCCCGen(5), CCC(5)},
		{"butterfly-2x1", NewButterflyGen(2, 1), NewButterfly(2, 1).G},
		{"butterfly-2x3", NewButterflyGen(2, 3), NewButterfly(2, 3).G},
		{"butterfly-3x2", NewButterflyGen(3, 2), NewButterfly(3, 2).G},
		{"debruijn-2x2", NewDeBruijnGen(2, 2, false), NewDeBruijn(2, 2).G},
		{"debruijn-2x4", NewDeBruijnGen(2, 4, false), NewDeBruijn(2, 4).G},
		{"debruijn-3x3", NewDeBruijnGen(3, 3, false), NewDeBruijn(3, 3).G},
		{"debruijn-digraph-2x3", NewDeBruijnGen(2, 3, true), NewDeBruijnDigraph(2, 3).G},
		{"debruijn-digraph-3x2", NewDeBruijnGen(3, 2, true), NewDeBruijnDigraph(3, 2).G},
		{"kautz-2x2", NewKautzGen(2, 2, false), NewKautz(2, 2).G},
		{"kautz-2x4", NewKautzGen(2, 4, false), NewKautz(2, 4).G},
		{"kautz-3x3", NewKautzGen(3, 3, false), NewKautz(3, 3).G},
		{"kautz-digraph-2x3", NewKautzGen(2, 3, true), NewKautzDigraph(2, 3).G},
		{"kautz-digraph-3x2", NewKautzGen(3, 2, true), NewKautzDigraph(3, 2).G},
	}
}

// TestGeneratorsMatchBuilders is the differential pin: materializing each
// generator must reproduce the builder's digraph arc for arc.
func TestGeneratorsMatchBuilders(t *testing.T) {
	for _, tc := range genCases() {
		t.Run(tc.name, func(t *testing.T) {
			if tc.gen.N() != tc.want.N() {
				t.Fatalf("N: generator %d, builder %d", tc.gen.N(), tc.want.N())
			}
			got := graph.MaterializeSource(tc.gen)
			if got.M() != tc.want.M() {
				t.Fatalf("M: generator %d, builder %d", got.M(), tc.want.M())
			}
			for _, a := range tc.want.Arcs() {
				if !got.HasArc(a.From, a.To) {
					t.Fatalf("generator missing arc %v", a)
				}
			}
		})
	}
}

// TestGeneratorInArcsMatchBuilders checks the in-neighbor side (OutArcs is
// covered by materialization) and that no vertex exceeds DegBound.
func TestGeneratorInArcsMatchBuilders(t *testing.T) {
	for _, tc := range genCases() {
		t.Run(tc.name, func(t *testing.T) {
			bound := tc.gen.DegBound()
			buf := make([]int32, bound)
			for v := 0; v < tc.gen.N(); v++ {
				k := tc.gen.InArcs(v, buf)
				if k > bound {
					t.Fatalf("InArcs(%d) wrote %d > DegBound %d", v, k, bound)
				}
				got := map[int]bool{}
				for _, u := range buf[:k] {
					if got[int(u)] {
						t.Fatalf("InArcs(%d) duplicate neighbor %d", v, u)
					}
					got[int(u)] = true
				}
				want := tc.want.In(v)
				if len(want) != k {
					t.Fatalf("InArcs(%d): got %d neighbors, builder has %d", v, k, len(want))
				}
				for _, u := range want {
					if !got[u] {
						t.Fatalf("InArcs(%d) missing %d", v, u)
					}
				}
			}
		})
	}
}

// TestKautzCodecRoundTrip exercises the rank codec across every vertex of
// a few instances: decode must yield a valid Kautz word and encode must
// invert it.
func TestKautzCodecRoundTrip(t *testing.T) {
	for _, p := range []struct{ d, D int }{{2, 2}, {2, 5}, {3, 3}, {4, 2}} {
		k := NewKautzGen(p.d, p.D, true)
		ref := NewKautzDigraph(p.d, p.D)
		if k.N() != ref.N() {
			t.Fatalf("K(%d,%d): N %d want %d", p.d, p.D, k.N(), ref.N())
		}
		var x [64]int
		for id := 0; id < k.N(); id++ {
			k.decode(id, &x)
			for i := 0; i+1 < p.D; i++ {
				if x[i] == x[i+1] {
					t.Fatalf("K(%d,%d) id %d: adjacent equal digits %v", p.d, p.D, id, x[:p.D])
				}
			}
			if back := k.encode(&x); back != id {
				t.Fatalf("K(%d,%d) id %d: round trip %d", p.d, p.D, id, back)
			}
			// The codec must agree with the builder's enumeration order.
			want := ref.Label(id)
			for i := 0; i < p.D; i++ {
				if x[i] != want[i] {
					t.Fatalf("K(%d,%d) id %d: decode %v, builder word %v", p.d, p.D, id, x[:p.D], want)
				}
			}
		}
	}
}

// TestGeneratorAllocs verifies the hot neighbor methods allocate nothing.
func TestGeneratorAllocs(t *testing.T) {
	for _, tc := range genCases() {
		t.Run(tc.name, func(t *testing.T) {
			buf := make([]int32, tc.gen.DegBound())
			n := tc.gen.N()
			if avg := testing.AllocsPerRun(100, func() {
				for v := 0; v < n; v += 17 {
					tc.gen.OutArcs(v, buf)
					tc.gen.InArcs(v, buf)
				}
			}); avg != 0 {
				t.Fatalf("neighbor methods allocate %v per run", avg)
			}
			og, ok := tc.gen.(graph.OrGatherer)
			if !ok {
				return
			}
			table := make([]uint64, n)
			out := make([]uint64, n)
			if avg := testing.AllocsPerRun(100, func() {
				og.OrInChunk(0, n, table, out)
			}); avg != 0 {
				t.Fatalf("OrInChunk allocates %v per run", avg)
			}
		})
	}
}

// TestCheckGenSizePanics pins the int32-id backstop.
func TestCheckGenSizePanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("hypercube-D32", func() { NewHypercubeGen(32) })
	mustPanic("cycle-2", func() { NewCycleGen(2) })
	mustPanic("torus-2x3", func() { NewTorusGen(2, 3) })
	mustPanic("ccc-2", func() { NewCCCGen(2) })
	mustPanic("butterfly-bad", func() { NewButterflyGen(1, 3) })
	mustPanic("debruijn-bad", func() { NewDeBruijnGen(2, 1, true) })
	mustPanic("kautz-bad", func() { NewKautzGen(1, 2, false) })
}

func ExampleNewHypercubeGen() {
	h := NewHypercubeGen(3)
	buf := make([]int32, h.DegBound())
	k := h.OutArcs(5, buf)
	fmt.Println(h.N(), buf[:k])
	// Output: 8 [4 7 1]
}
