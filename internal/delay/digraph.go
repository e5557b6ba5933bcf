// Package delay implements the paper's central novel object: the delay
// digraph of a gossiping protocol (Definition 3.3), its delay matrix M(λ)
// (Definition 3.4), and the per-vertex local matrices Mx(λ) with their
// rank-reduced companions Nx(λ) and Ox(λ) (Section 4, Figs. 1–3) whose
// spectral analysis yields the norm bound of Lemma 4.3. The full-duplex
// local matrix of Section 6 (Fig. 7) is also provided.
//
// Routine ↔ paper map:
//
//   - Build / NewPlan / Plan.Instance — the delay digraph DG of
//     Definition 3.3 (Build per call; the Plan compiles the activation
//     structure once and unrolls it per round count, the form the
//     certification pipeline caches).
//   - Digraph.Matrix / Instance.Matrix — the delay matrix M(λ) of
//     Definition 3.4.
//   - Digraph.Norm / Instance.Norm — ‖M(λ)‖₂, the quantity Theorem 4.1
//     turns into the g(G) lower bound and Lemma 4.3 / Lemma 6.1 cap,
//     evaluated as the largest per-vertex block norm: the row/column
//     permutation of Section 4 (blockSet) and norm property 8 of Section 2.
//   - ExtractLocal / LocalProtocol — the local protocol ⟨(l_j),(r_j)⟩ one
//     vertex sees (Section 4); Mx/Nx/Ox are Figs. 1 and 3, SemiEigenvector
//     and Lemma42Check are Lemma 4.2, NormBound is Lemma 4.3.
//   - FullDuplexMx / Lemma61Check — Fig. 7 and Lemma 6.1 (Section 6).
//   - WeightMatrix / WeightedDiameterBound / BestWeightedDiameterBound —
//     the Section 7 extension to weighted-diameter lower bounds.
package delay

import (
	"fmt"
	"sort"

	"repro/internal/gossip"
	"repro/internal/graph"
	"repro/internal/matrix"
)

// Activation is a vertex (x, y, i) of the delay digraph: arc (x,y) of the
// network is active at round i (0-based here; the paper counts from 1).
type Activation struct {
	From, To int
	Round    int
}

// DelayArc is a weighted arc of the delay digraph between activation indices
// A and B with weight W = round(B) − round(A).
type DelayArc struct {
	A, B int
	W    int
}

// Digraph is the delay digraph DG of a protocol executed for T rounds
// (Definition 3.3): vertices are all activations, and there is an arc from
// (x,y,i) to (y,z,j) whenever 1 ≤ j−i < Horizon. For an s-systolic protocol
// Horizon = s (later repetitions of the same activated arc are represented
// by the periodicity); for a finite non-systolic protocol Horizon = T, which
// is the s→∞ reading used by the corollaries.
type Digraph struct {
	Verts   []Activation
	Arcs    []DelayArc
	Horizon int
	T       int
	N       int // vertices of the underlying network
}

// Build constructs the delay digraph of protocol p executed for t rounds on
// g. It validates the protocol first. Since the compile-cache-execute
// refactor it is a thin wrapper over the compiled lowering: NewPlan derives
// the per-round activation structure once and Instance unrolls it for t —
// callers that build repeatedly (the certification pipeline) hold the Plan
// and skip straight to Instance. The resulting digraph is identical to the
// classic per-round construction (buildInterpreted, kept in the tests as
// the reference the differential tests compare against).
func Build(g *graph.Digraph, p *gossip.Protocol, t int) (*Digraph, error) {
	pl, err := NewPlan(g, p)
	if err != nil {
		return nil, err
	}
	in, err := pl.Instance(t)
	if err != nil {
		return nil, err
	}
	return in.Digraph(), nil
}

// Matrix returns the delay matrix M(λ) of Definition 3.4 as a sparse CSR
// matrix: M[(x,y,i)][(y,z,j)] = λ^(j−i) for every delay arc.
//
//gossip:allowpanic domain guard: delay recurrences run on validated parameters; a violation is a programming error
func (dg *Digraph) Matrix(lambda float64) *matrix.CSR {
	if lambda <= 0 || lambda >= 1 {
		panic(fmt.Sprintf("delay: Matrix needs 0 < λ < 1, got %g", lambda))
	}
	ts := make([]matrix.Triplet, 0, len(dg.Arcs))
	for _, a := range dg.Arcs {
		ts = append(ts, matrix.Triplet{Row: a.A, Col: a.B, Val: powf(lambda, a.W)})
	}
	return matrix.NewCSR(len(dg.Verts), len(dg.Verts), ts)
}

// Norm returns ‖M(λ)‖₂ as the largest per-vertex block norm, through the
// same block index and kernel as Instance.Norm (so the two agree bit for
// bit). By Lemma 4.3 this never exceeds λ·√p⌈s/2⌉(λ)·√p⌊s/2⌋(λ) for an
// s-systolic half-duplex or directed protocol.
func (dg *Digraph) Norm(lambda float64) float64 {
	checkLambda("Norm", lambda)
	bs := dg.blocks()
	bn := blockNorm{set: bs, pow: make([]float64, bs.maxW+1)}
	return bn.norm(lambda)
}

// blocks builds the block index of M(λ): arcs sorted by row and column,
// each column renumbered by its position among the activations leaving
// the same vertex.
func (dg *Digraph) blocks() *blockSet {
	arcs := append([]DelayArc(nil), dg.Arcs...)
	sort.Slice(arcs, func(i, j int) bool {
		if arcs[i].A != arcs[j].A {
			return arcs[i].A < arcs[j].A
		}
		return arcs[i].B < arcs[j].B
	})
	colPos := make([]int32, len(dg.Verts))
	outCnt := make([]int32, dg.N)
	for idx, act := range dg.Verts {
		colPos[idx] = outCnt[act.From]
		outCnt[act.From]++
	}
	bs := &blockSet{
		rowPtr: make([]int, len(dg.Verts)+1),
		col:    make([]int32, len(arcs)),
		wExp:   make([]int32, len(arcs)),
	}
	for e, a := range arcs {
		bs.rowPtr[a.A+1]++
		bs.col[e], bs.wExp[e] = colPos[a.B], int32(a.W)
		bs.maxW = max(bs.maxW, a.W)
	}
	for r := range dg.Verts {
		bs.rowPtr[r+1] += bs.rowPtr[r]
	}
	bs.groupRows(dg.N, func(row int) int { return dg.Verts[row].To })
	return bs
}

func powf(l float64, k int) float64 {
	v := 1.0
	for i := 0; i < k; i++ {
		v *= l
	}
	return v
}
