// Reference constructions the differential and oracle tests compare the
// compiled delay lowering against. They live in test code: production
// builds the delay digraph through Plan and evaluates ‖M(λ)‖ through the
// block index.
package delay

import (
	"fmt"

	"repro/internal/gossip"
	"repro/internal/graph"
	"repro/internal/matrix"
)

// buildInterpreted is the classic O(rounds × arcs) delay-digraph
// construction, executing the protocol round by round exactly as
// Definition 3.3 reads: the independent reference the plan differential
// tests pin Build/Instance against.
func buildInterpreted(g *graph.Digraph, p *gossip.Protocol, t int) (*Digraph, error) {
	if err := p.Validate(g); err != nil {
		return nil, err
	}
	if t <= 0 {
		return nil, fmt.Errorf("delay: nonpositive round count %d", t)
	}
	horizon := t
	if p.Systolic() {
		horizon = p.Period
	}
	dg := &Digraph{Horizon: horizon, T: t, N: g.N()}
	// byHead[v] lists activation indices whose arc enters v, in round order.
	byHead := make([][]int, g.N())
	for r := 0; r < t; r++ {
		for _, a := range p.Round(r) {
			idx := len(dg.Verts)
			dg.Verts = append(dg.Verts, Activation{From: a.From, To: a.To, Round: r})
			byHead[a.To] = append(byHead[a.To], idx)
		}
	}
	// byTail[v] lists activation indices whose arc leaves v, in round order.
	byTail := make([][]int, g.N())
	for idx, act := range dg.Verts {
		byTail[act.From] = append(byTail[act.From], idx)
	}
	for v := 0; v < g.N(); v++ {
		for _, aIdx := range byHead[v] {
			ai := dg.Verts[aIdx].Round
			for _, bIdx := range byTail[v] {
				d := dg.Verts[bIdx].Round - ai
				if d >= 1 && d < horizon {
					dg.Arcs = append(dg.Arcs, DelayArc{A: aIdx, B: bIdx, W: d})
				}
			}
		}
	}
	return dg, nil
}

// LocalBlocks partitions the delay matrix by network vertex (the row/column
// permutation argument of Section 4) into dense blocks, built independently
// of the block index Norm evaluates: block x has one row per activation
// entering x and one column per activation leaving x, and the full delay
// matrix is, up to permutation, block diagonal in these blocks. By norm
// property 8, ‖M(λ)‖ = max over x of ‖block_x(λ)‖.
func (dg *Digraph) LocalBlocks(lambda float64) []*matrix.Dense {
	checkLambda("LocalBlocks", lambda)
	inAt := make([][]int, dg.N)
	outAt := make([][]int, dg.N)
	for idx, act := range dg.Verts {
		inAt[act.To] = append(inAt[act.To], idx)
		outAt[act.From] = append(outAt[act.From], idx)
	}
	rowPos := make(map[int]int, len(dg.Verts))
	colPos := make(map[int]int, len(dg.Verts))
	blocks := make([]*matrix.Dense, dg.N)
	for x := 0; x < dg.N; x++ {
		for pos, idx := range inAt[x] {
			rowPos[idx] = pos
		}
		for pos, idx := range outAt[x] {
			colPos[idx] = pos
		}
		blocks[x] = matrix.NewDense(len(inAt[x]), len(outAt[x]))
	}
	for _, a := range dg.Arcs {
		// Arc (x,y,i) -> (y,z,j): row in block y (head of A), column in
		// block y (tail of B). Both belong to vertex y's block.
		y := dg.Verts[a.A].To
		blocks[y].Set(rowPos[a.A], colPos[a.B], powf(lambda, a.W))
	}
	return blocks
}
