package topology

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/graph"
)

// genCase pairs an arithmetic generator and the exported builder that
// materializes it with the reference builder both must reproduce exactly
// (vertex numbering and arc set).
type genCase struct {
	name  string
	gen   graph.ArcSource
	built *graph.Digraph
	want  *graph.Digraph
}

func genCases() []genCase {
	return []genCase{
		{"hypercube-D1", NewHypercubeGen(1), Hypercube(1), oracleHypercube(1)},
		{"hypercube-D4", NewHypercubeGen(4), Hypercube(4), oracleHypercube(4)},
		{"hypercube-D7", NewHypercubeGen(7), Hypercube(7), oracleHypercube(7)},
		{"hypercube-D12", NewHypercubeGen(12), Hypercube(12), oracleHypercube(12)},
		{"cycle-3", NewCycleGen(3), Cycle(3), oracleCycle(3)},
		{"cycle-4", NewCycleGen(4), Cycle(4), oracleCycle(4)},
		{"cycle-17", NewCycleGen(17), Cycle(17), oracleCycle(17)},
		{"cycle-4099", NewCycleGen(4099), Cycle(4099), oracleCycle(4099)},
		{"torus-3x3", NewTorusGen(3, 3), Torus(3, 3), oracleTorus(3, 3)},
		{"torus-3x5", NewTorusGen(3, 5), Torus(3, 5), oracleTorus(3, 5)},
		{"torus-6x4", NewTorusGen(6, 4), Torus(6, 4), oracleTorus(6, 4)},
		{"torus-67x65", NewTorusGen(67, 65), Torus(67, 65), oracleTorus(67, 65)},
		{"ccc-3", NewCCCGen(3), CCC(3), oracleCCC(3)},
		{"ccc-5", NewCCCGen(5), CCC(5), oracleCCC(5)},
		{"ccc-9", NewCCCGen(9), CCC(9), oracleCCC(9)},
		{"butterfly-2x1", NewButterflyGen(2, 1), NewButterfly(2, 1).G, oracleButterfly(2, 1)},
		{"butterfly-2x3", NewButterflyGen(2, 3), NewButterfly(2, 3).G, oracleButterfly(2, 3)},
		{"butterfly-3x2", NewButterflyGen(3, 2), NewButterfly(3, 2).G, oracleButterfly(3, 2)},
		{"butterfly-2x9", NewButterflyGen(2, 9), NewButterfly(2, 9).G, oracleButterfly(2, 9)},
		{"debruijn-2x2", NewDeBruijnGen(2, 2, false), NewDeBruijn(2, 2).G, oracleDeBruijn(2, 2, false)},
		{"debruijn-2x4", NewDeBruijnGen(2, 4, false), NewDeBruijn(2, 4).G, oracleDeBruijn(2, 4, false)},
		{"debruijn-3x3", NewDeBruijnGen(3, 3, false), NewDeBruijn(3, 3).G, oracleDeBruijn(3, 3, false)},
		{"debruijn-2x12", NewDeBruijnGen(2, 12, false), NewDeBruijn(2, 12).G, oracleDeBruijn(2, 12, false)},
		{"debruijn-digraph-2x3", NewDeBruijnGen(2, 3, true), NewDeBruijnDigraph(2, 3).G, oracleDeBruijn(2, 3, true)},
		{"debruijn-digraph-3x2", NewDeBruijnGen(3, 2, true), NewDeBruijnDigraph(3, 2).G, oracleDeBruijn(3, 2, true)},
		{"debruijn-digraph-3x8", NewDeBruijnGen(3, 8, true), NewDeBruijnDigraph(3, 8).G, oracleDeBruijn(3, 8, true)},
		{"kautz-2x2", NewKautzGen(2, 2, false), NewKautz(2, 2).G, oracleKautz(2, 2, false)},
		{"kautz-2x4", NewKautzGen(2, 4, false), NewKautz(2, 4).G, oracleKautz(2, 4, false)},
		{"kautz-3x3", NewKautzGen(3, 3, false), NewKautz(3, 3).G, oracleKautz(3, 3, false)},
		{"kautz-2x12", NewKautzGen(2, 12, false), NewKautz(2, 12).G, oracleKautz(2, 12, false)},
		{"kautz-digraph-2x3", NewKautzGen(2, 3, true), NewKautzDigraph(2, 3).G, oracleKautz(2, 3, true)},
		{"kautz-digraph-3x2", NewKautzGen(3, 2, true), NewKautzDigraph(3, 2).G, oracleKautz(3, 2, true)},
		{"kautz-digraph-3x8", NewKautzGen(3, 8, true), NewKautzDigraph(3, 8).G, oracleKautz(3, 8, true)},
	}
}

// TestGeneratorsMatchBuilders is the differential pin: the exported
// builder, and the generator drained by MaterializeSource, must reproduce
// the reference builder arc for arc, with identical sorted adjacency.
func TestGeneratorsMatchBuilders(t *testing.T) {
	for _, tc := range genCases() {
		t.Run(tc.name, func(t *testing.T) {
			if tc.gen.N() != tc.want.N() {
				t.Fatalf("N: generator %d, reference %d", tc.gen.N(), tc.want.N())
			}
			for _, got := range []*graph.Digraph{tc.built, graph.MaterializeSource(tc.gen)} {
				if got.N() != tc.want.N() || got.M() != tc.want.M() {
					t.Fatalf("size: got n=%d m=%d, reference n=%d m=%d", got.N(), got.M(), tc.want.N(), tc.want.M())
				}
				for v := 0; v < got.N(); v++ {
					if !slices.Equal(got.Out(v), tc.want.Out(v)) || !slices.Equal(got.In(v), tc.want.In(v)) {
						t.Fatalf("vertex %d: out %v in %v, reference out %v in %v",
							v, got.Out(v), got.In(v), tc.want.Out(v), tc.want.In(v))
					}
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
		ref := oracleKautzWords(p.d, p.D)
		if k.N() != len(ref) {
			t.Fatalf("K(%d,%d): N %d want %d", p.d, p.D, k.N(), len(ref))
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
			// The codec must agree with the reference enumeration order.
			if want := ref[id]; !slices.Equal(x[:p.D], want) {
				t.Fatalf("K(%d,%d) id %d: decode %v, reference word %v", p.d, p.D, id, x[:p.D], want)
			}
		}
	}
}

// TestKautzIDLabel pins the exported word codec: Label agrees with the
// reference enumeration, ID inverts it, and ID rejects every non-Kautz word
// with -1.
func TestKautzIDLabel(t *testing.T) {
	for _, p := range []struct{ d, D int }{{2, 5}, {3, 4}} {
		k := NewKautzDigraph(p.d, p.D)
		ref := oracleKautzWords(p.d, p.D)
		for v := 0; v < k.N(); v++ {
			x := k.Label(v)
			if !slices.Equal(x, ref[v]) {
				t.Fatalf("K(%d,%d) Label(%d) = %v, reference %v", p.d, p.D, v, x, ref[v])
			}
			if got := k.ID(x); got != v {
				t.Fatalf("K(%d,%d) ID(Label(%d)) = %d", p.d, p.D, v, got)
			}
		}
		bad := map[string]Word{
			"equal adjacent digits": append(Word{1, 1}, ref[0][2:]...),
			"digit above d":         append(Word{p.d + 1}, ref[0][1:]...),
			"negative digit":        append(Word{-1}, ref[0][1:]...),
			"short word":            ref[0][1:],
			"long word":             append(Word{p.d}, ref[0]...),
		}
		for name, x := range bad {
			if got := k.ID(x); got != -1 {
				t.Fatalf("K(%d,%d) ID(%v) (%s) = %d, want -1", p.d, p.D, x, name, got)
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
