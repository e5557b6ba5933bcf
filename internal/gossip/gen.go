package gossip

import (
	"math/bits"

	"repro/internal/graph"
)

// This file holds the packed flooding step, over any graph.ArcSource: a
// materialized network's DigraphSource or an arithmetic generator. Memory
// per worker is the two frontier buffers plus the FloodGen's fixed scratch;
// a generator adds nothing for its arcs, which is what lets a d=24
// hypercube batch (16.7M nodes, ~400M arcs) scan in well under 1 GiB.

// StepFloodGenRange computes the next-round words for destinations
// [lo, hi) only: one vertex-range shard of a flooding step. Shards of one
// round partition [0, n) across workers (disjoint writes to the next
// buffer, read-only current buffer); a FloodGen with arc scratch (ArcBuf
// non-nil) must not serve two shards at once. When every shard has
// returned, exactly one caller must CommitStep, and the round's
// (complete, changed, informed) are the AND / OR / sum of the shard
// results, with complete and changed masked by Full.
//
// The walk is destination-major in GenChunkVerts chunks. On the
// OrGatherer fast path the source folds the current words over each
// chunk's in-neighborhoods straight into the chunk's slice of the next
// buffer, and a second pass over those L1-resident words adds each
// vertex's own word and the round statistics; otherwise each destination
// gathers through the FloodGen's arc buffer.
//
//gossip:hotpath
func (f *PackedFrontier) StepFloodGenRange(fg *graph.FloodGen, lo, hi int) (and, changed uint64, informed int) {
	cur, nxt := f.cur, f.next
	and = ^uint64(0)
	if og := fg.Gatherer(); og != nil {
		for clo := lo; clo < hi; clo += graph.GenChunkVerts {
			chi := min(clo+graph.GenChunkVerts, hi)
			out, own := nxt[clo:chi], cur[clo:chi]
			og.OrInChunk(clo, chi, cur, out)
			for i, pv := range own {
				w := pv | out[i]
				out[i] = w
				changed |= w ^ pv
				and &= w
				informed += bits.OnesCount64(w)
			}
		}
		return and, changed, informed
	}
	src := fg.Src()
	buf := fg.ArcBuf()
	for v := lo; v < hi; v++ {
		pv := cur[v]
		w := pv
		k := src.InArcs(v, buf)
		for i := 0; i < k; i++ {
			w |= cur[buf[i]]
		}
		nxt[v] = w
		changed |= w ^ pv
		and &= w
		informed += bits.OnesCount64(w)
	}
	return and, changed, informed
}

// CommitStep publishes a round stepped through StepFloodGenRange by
// swapping the buffers. Every vertex must have been covered by exactly one
// range since the last commit.
func (f *PackedFrontier) CommitStep() {
	f.cur, f.next = f.next, f.cur
}

// StepFloodGen advances every lane one flooding round: each vertex word
// ORs in the beginning-of-round words of its in-neighbors. It returns the
// lanes whose source now reaches every vertex (complete), the lanes that
// informed at least one new vertex this round (changed; a lane absent from
// both masks has hit its reachable fixpoint and can never complete), and
// the total informed (vertex, lane) pairs, the popcount column sum scan
// progress traces report. It is the single-worker convenience over
// StepFloodGenRange + CommitStep.
//
//gossip:hotpath
func (f *PackedFrontier) StepFloodGen(fg *graph.FloodGen) (complete, changed uint64, informed int) {
	and, ch, informed := f.StepFloodGenRange(fg, 0, f.n)
	f.CommitStep()
	return and & f.full, ch & f.full, informed
}
