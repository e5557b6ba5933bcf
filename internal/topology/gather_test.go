package topology

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// hypercubeVertexMajor is the vertex-major hypercube gather the
// dimension-major OrInChunk replaced, kept as its oracle: D xors and D
// loads per destination, folded on four independent accumulators.
func hypercubeVertexMajor(D, lo, hi int, table, out []uint64) {
	if D < 4 {
		for v := lo; v < hi; v++ {
			acc := table[v^1]
			for i := 1; i < D; i++ {
				acc |= table[v^(1<<i)]
			}
			out[v-lo] = acc
		}
		return
	}
	for v := lo; v < hi; v++ {
		a := table[v^1]
		b := table[v^2]
		c := table[v^4]
		d := table[v^8]
		i := 4
		for ; i+3 < D; i += 4 {
			a |= table[v^(1<<i)]
			b |= table[v^(2<<i)]
			c |= table[v^(4<<i)]
			d |= table[v^(8<<i)]
		}
		for ; i < D; i++ {
			a |= table[v^(1<<i)]
		}
		out[v-lo] = a | b | c | d
	}
}

// inArcsFold is the reference gather of every generator: the OR of
// table[u] over InArcs(v), one destination at a time.
func inArcsFold(src graph.ArcSource, lo, hi int, table, out []uint64, buf []int32) {
	for v := lo; v < hi; v++ {
		var w uint64
		k := src.InArcs(v, buf)
		for _, u := range buf[:k] {
			w |= table[u]
		}
		out[v-lo] = w
	}
}

// gatherCases lists every generator with the OrGatherer fast path: the
// builder-pinned cases plus hypercubes of every dimension up to 14 and
// both de Bruijn variants for d ∈ {2, 3} at several diameters.
func gatherCases() []genCase {
	var cs []genCase
	for _, tc := range genCases() {
		if _, ok := tc.gen.(graph.OrGatherer); ok {
			cs = append(cs, tc)
		}
	}
	for _, D := range []int{2, 3, 5, 6, 8, 9, 10, 11, 12, 13, 14} {
		cs = append(cs, genCase{name: fmt.Sprintf("hypercube-D%d", D), gen: NewHypercubeGen(D)})
	}
	for _, p := range []struct{ d, D int }{{2, 5}, {2, 8}, {2, 12}, {3, 2}, {3, 5}, {3, 7}} {
		cs = append(cs, genCase{name: fmt.Sprintf("debruijn-%dx%d", p.d, p.D), gen: NewDeBruijnGen(p.d, p.D, false)})
	}
	for _, p := range []struct{ d, D int }{{2, 2}, {2, 5}, {2, 8}, {2, 12}, {3, 3}, {3, 5}, {3, 7}} {
		cs = append(cs, genCase{name: fmt.Sprintf("debruijn-digraph-%dx%d", p.d, p.D), gen: NewDeBruijnGen(p.d, p.D, true)})
	}
	return append(cs,
		genCase{name: "cycle-1001", gen: NewCycleGen(1001)},
		genCase{name: "torus-67x45", gen: NewTorusGen(67, 45)},
		genCase{name: "ccc-9", gen: NewCCCGen(9)})
}

// gatherRanges returns the [lo, hi) ranges the differential test gathers:
// the aligned GenChunkVerts chunks a flood step uses, a tiling by 7-vertex
// ranges, single vertices at both ends and at every de Bruijn constant
// word, and random unaligned ranges that straddle run and chunk
// boundaries.
func gatherRanges(src graph.ArcSource, rng *rand.Rand) [][2]int {
	n := src.N()
	var rs [][2]int
	for _, step := range []int{graph.GenChunkVerts, 7} {
		for lo := 0; lo < n; lo += step {
			rs = append(rs, [2]int{lo, min(lo+step, n)})
		}
	}
	rs = append(rs, [2]int{0, 1}, [2]int{n - 1, n})
	if db, ok := src.(*DeBruijnGen); ok {
		k := (n - 1) / (db.d - 1)
		for c := 0; c < db.d; c++ {
			w := c * k
			rs = append(rs, [2]int{w, w + 1}, [2]int{max(w-2, 0), min(w+3, n)})
		}
	}
	for i := 0; i < 40; i++ {
		lo := rng.Intn(n)
		hi := lo + 1 + rng.Intn(min(n-lo, 3*graph.GenChunkVerts))
		rs = append(rs, [2]int{lo, hi})
	}
	return rs
}

// TestGeneratorOrInChunk pins every generator's OrInChunk against the
// InArcs fold (and the hypercube's against its vertex-major oracle too)
// on random tables: exact words on every range, out written in full over
// stale contents and nowhere past hi−lo, table left untouched.
func TestGeneratorOrInChunk(t *testing.T) {
	for _, tc := range gatherCases() {
		t.Run(tc.name, func(t *testing.T) {
			og, ok := tc.gen.(graph.OrGatherer)
			if !ok {
				t.Fatal("no OrGatherer fast path")
			}
			n := tc.gen.N()
			rng := rand.New(rand.NewSource(int64(n)))
			table := make([]uint64, n)
			for v := range table {
				table[v] = rng.Uint64()
			}
			orig := append([]uint64(nil), table...)
			want := make([]uint64, n)
			inArcsFold(tc.gen, 0, n, table, want, make([]int32, tc.gen.DegBound()))
			if hc, ok := tc.gen.(*HypercubeGen); ok {
				got := make([]uint64, n)
				hypercubeVertexMajor(hc.d, 0, n, table, got)
				for v := range got {
					if got[v] != want[v] {
						t.Fatalf("vertex-major oracle (%d): got %#x want %#x", v, got[v], want[v])
					}
				}
			}
			const sentinel = 0x5a5a5a5a5a5a5a5a
			out := make([]uint64, 3*graph.GenChunkVerts+1)
			for _, r := range gatherRanges(tc.gen, rng) {
				lo, hi := r[0], r[1]
				for i := range out[:hi-lo] {
					out[i] = rng.Uint64()
				}
				out[hi-lo] = sentinel
				og.OrInChunk(lo, hi, table, out[:hi-lo])
				for v := lo; v < hi; v++ {
					if out[v-lo] != want[v] {
						t.Fatalf("OrInChunk(%d, %d) vertex %d: got %#x want %#x", lo, hi, v, out[v-lo], want[v])
					}
				}
				if out[hi-lo] != sentinel {
					t.Fatalf("OrInChunk(%d, %d) wrote past hi", lo, hi)
				}
			}
			for v := range table {
				if table[v] != orig[v] {
					t.Fatalf("OrInChunk modified table[%d]", v)
				}
			}
		})
	}
}

// BenchmarkGenGather times one pull round's gather, chunk by chunk as the
// flood step calls it, against its oracle in the same run: the hypercube's
// run-structured fold against the vertex-major loop at d=20, and the de
// Bruijn fold against the per-vertex InArcs gather on DB(2,19). The any-d
// entry runs the general de Bruijn loop on the same network, the figure
// the binary specialization has to beat.
func BenchmarkGenGather(b *testing.B) {
	hc := NewHypercubeGen(20)
	db := NewDeBruijnGen(2, 19, false)
	dbBuf := make([]int32, db.DegBound())
	for _, c := range []struct {
		name   string
		src    graph.ArcSource
		gather func(lo, hi int, table, out []uint64)
	}{
		{"hypercube-d20/runs", hc, hc.OrInChunk},
		{"hypercube-d20/vertex-major", hc, func(lo, hi int, table, out []uint64) {
			hypercubeVertexMajor(hc.d, lo, hi, table, out)
		}},
		{"debruijn-2-19/runs", db, db.OrInChunk},
		{"debruijn-2-19/any-d", db, func(lo, hi int, table, out []uint64) {
			db.orIn(lo, table, out[:hi-lo])
		}},
		{"debruijn-2-19/inarcs", db, func(lo, hi int, table, out []uint64) {
			inArcsFold(db, lo, hi, table, out, dbBuf)
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			n := c.src.N()
			rng := rand.New(rand.NewSource(1))
			table, out := make([]uint64, n), make([]uint64, n)
			for v := range table {
				table[v] = rng.Uint64()
			}
			b.ReportAllocs()
			for b.Loop() {
				for lo := 0; lo < n; lo += graph.GenChunkVerts {
					hi := min(lo+graph.GenChunkVerts, n)
					c.gather(lo, hi, table, out[lo:hi])
				}
			}
		})
	}
}
