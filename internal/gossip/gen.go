package gossip

import (
	"math"
	"math/bits"

	"repro/internal/graph"
)

// This file holds the packed flooding step, over any graph.ArcSource: a
// materialized network's DigraphSource or an arithmetic generator. Memory
// per worker is the two frontier buffers plus the FloodGen's fixed scratch;
// a generator adds nothing for its arcs, which is what lets a d=24
// hypercube batch (16.7M nodes, ~400M arcs) scan in well under 1 GiB.

// StepFloodGenRange computes the next-round words for destinations
// [lo, hi) only: one vertex-range shard of a pulling flooding step, which
// gathers every destination's in-neighbor words and does no other
// per-vertex work (StepFloodPush is the other direction). Shards of one
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
// range since the last commit. The round listed nothing, so the next one
// pulls unless ListChanged lists its changes.
func (f *PackedFrontier) CommitStep() {
	f.cur, f.next = f.next, f.cur
	f.listed = -1
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

// StepFloodPush advances every lane one flooding round by pushing from the
// listed vertices (Listed must hold): those the previous round changed.
// Flooding only adds bits, and a vertex's older bits reached its
// out-neighbors a round earlier, so the round is
//
//	next[v] = cur[v] | OR over in-neighbors u of (cur[u] &^ prev[u]),
//
// bit for bit what StepFloodGen gathers. The write buffer holds prev, and
// differs from cur only at listed vertices, so the round first syncs
// next[u] = cur[u] for each listed u, keeping the delta. It then ORs each
// delta into the words of u's out-neighbors, tallying the changed lanes and
// added bits and listing every vertex whose word changes for the round
// after (the list is dropped once it would exceed PushCap). Last, one
// sequential AND pass over the lanes that changed but were not complete
// finds the completions, stopping as soon as none is left.
//
// done must be the complete mask the previous round returned (0 after
// Reset). The results are StepFloodGen's, with the informed pairs the
// round added in place of the informed total. fg must carry arc scratch
// (graph.ShardFloodGen), also on the OrGatherer fast path.
//
//gossip:hotpath
func (f *PackedFrontier) StepFloodPush(fg *graph.FloodGen, done uint64) (complete, changed uint64, added int) {
	cur, nxt := f.cur, f.next
	list, delta := f.ids[:f.listed], f.delta[:f.listed]
	in, out := f.half, f.half^32
	for i, e := range list {
		u := uint32(e >> in)
		w := cur[u]
		delta[i] = w ^ nxt[u]
		nxt[u] = w
	}
	src, buf := fg.Src(), fg.ArcBuf()
	ids := f.ids
	keep := uint64(math.MaxUint32) << in // the half still being pushed
	m := 0
	for i := range list {
		d := delta[i]
		k := src.OutArcs(int(uint32(list[i]>>in)), buf)
		for _, v := range buf[:k] {
			old := nxt[v]
			w := old | d
			if w == old {
				continue
			}
			nxt[v] = w
			changed |= w ^ old
			added += bits.OnesCount64(w ^ old)
			if old == cur[v] { // v's first change this round
				if m < len(ids) {
					ids[m] = ids[m]&keep | uint64(uint32(v))<<out
				}
				m++
			}
		}
	}
	f.listed, f.half = m, out
	if m > len(ids) {
		f.listed = -1
	}
	and := changed &^ done
	for _, w := range nxt {
		if and == 0 {
			break
		}
		and &= w
	}
	f.cur, f.next = nxt, cur
	return (done | and) & f.full, changed, added
}
