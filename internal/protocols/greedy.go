package protocols

import (
	"fmt"
	"math/bits"

	"repro/internal/gossip"
	"repro/internal/graph"
)

// GreedyGossip builds a non-systolic gossip protocol round by round: each
// round greedily selects a matching of arcs ordered by decreasing
// information gain (number of items the head would newly learn). This is the
// generic upper-bound heuristic used in the comparison experiments; on most
// topologies it finishes within a small constant factor of the lower bound.
// Knowledge is kept as one bitset of ⌈n/64⌉ words per vertex, so a gain is
// a popcount (see greedyRounds).
//
// mode must be Directed or HalfDuplex (the greedy pairing does not maintain
// the full-duplex opposite-arc constraint; use GreedyGossipFullDuplex).
//
//gossip:allowpanic parameter guard: constructors run on registry-validated networks; a violation is a programming error
func GreedyGossip(g *graph.Digraph, mode gossip.Mode, maxRounds int) (*gossip.Protocol, error) {
	if mode == gossip.FullDuplex {
		panic("protocols: use GreedyGossipFullDuplex for full-duplex mode")
	}
	rounds, err := greedyRounds(g.N(), g.Arcs(), false, maxRounds)
	if err != nil {
		return nil, err
	}
	return gossip.NewFinite(rounds, mode), nil
}

// GreedyGossipFullDuplex is the full-duplex variant: candidates are
// undirected edges scored by the bidirectional information gain, and both
// orientations of each selected edge are activated.
func GreedyGossipFullDuplex(g *graph.Digraph, maxRounds int) (*gossip.Protocol, error) {
	rounds, err := greedyRounds(g.N(), g.Edges(), true, maxRounds)
	if err != nil {
		return nil, err
	}
	return gossip.NewFinite(rounds, gossip.FullDuplex), nil
}

// greedyRounds runs the greedy construction over the candidate arcs (full:
// undirected edges, each activated in both orientations) until every vertex
// knows every item.
//
// Knowledge is a bitset: vertex v's items are the w = ⌈n/64⌉ words
// know[v·w : (v+1)·w], item i being bit i%64 of word i/64. An arc's gain is
// popcount(from &^ to) summed over the words, an edge's popcount(u ^ v).
// Each round orders the candidates with positive gain by decreasing gain —
// a counting sort on the gain, stable, so ties keep the candidate order —
// and takes them greedily while both ends are free. The round is thus a
// matching: no vertex both sends and receives in it, so each transfer can
// be applied as soon as it is selected, with the same result as applying
// the whole round to the beginning-of-round knowledge.
func greedyRounds(n int, cands []graph.Arc, full bool, maxRounds int) ([][]graph.Arc, error) {
	w := (n + 63) / 64
	know := make([]uint64, n*w)
	cnt := make([]int, n) // |items known| per vertex
	incomplete := 0
	for v := 0; v < n; v++ {
		know[v*w+v/64] = 1 << (v % 64)
		cnt[v] = 1
		if cnt[v] < n {
			incomplete++
		}
	}
	// learn sets vertex v's item count to k, tracking completed vertices.
	learn := func(v, k int) {
		if cnt[v] < n && k == n {
			incomplete--
		}
		cnt[v] = k
	}
	gain := make([]int, len(cands))
	order := make([]int, len(cands))
	// bucket[n-k] counts, then places, the candidates of gain k: the keys
	// run from the largest gain n down to 0.
	bucket := make([]int, n+1)
	busy := make([]bool, n)
	var all []graph.Arc // every round's arcs, back to back
	var rounds [][]graph.Arc
	for r := 0; r < maxRounds && incomplete > 0; r++ {
		clear(bucket)
		for i, c := range cands {
			x, y := know[c.From*w:(c.From+1)*w], know[c.To*w:(c.To+1)*w]
			k := 0
			if full {
				for j, xj := range x {
					k += bits.OnesCount64(xj ^ y[j])
				}
			} else {
				for j, xj := range x {
					k += bits.OnesCount64(xj &^ y[j])
				}
			}
			gain[i] = k
			bucket[n-k]++
		}
		pos := 0
		for key := 0; key < n; key++ {
			pos, bucket[key] = pos+bucket[key], pos
		}
		for i, k := range gain {
			if k > 0 {
				order[bucket[n-k]] = i
				bucket[n-k]++
			}
		}
		clear(busy)
		start := len(all)
		for _, i := range order[:pos] {
			c := cands[i]
			if busy[c.From] || busy[c.To] {
				continue
			}
			busy[c.From], busy[c.To] = true, true
			all = append(all, c)
			x, y := know[c.From*w:(c.From+1)*w], know[c.To*w:(c.To+1)*w]
			if full {
				all = append(all, graph.Arc{From: c.To, To: c.From})
				for j, xj := range x {
					x[j] |= y[j]
					y[j] |= xj
				}
				// |u ∪ v| = (|u| + |v| + |u △ v|) / 2.
				u := (cnt[c.From] + cnt[c.To] + gain[i]) / 2
				learn(c.From, u)
				learn(c.To, u)
			} else {
				for j, xj := range x {
					y[j] |= xj
				}
				learn(c.To, cnt[c.To]+gain[i])
			}
		}
		if len(all) == start {
			if full {
				return nil, fmt.Errorf("protocols: greedy full-duplex gossip stalled at round %d", r)
			}
			return nil, fmt.Errorf("protocols: greedy gossip stalled at round %d (graph not strongly connected?)", r)
		}
		rounds = append(rounds, all[start:len(all):len(all)])
	}
	if incomplete > 0 {
		if full {
			return nil, fmt.Errorf("protocols: greedy full-duplex gossip incomplete after %d rounds", maxRounds)
		}
		return nil, fmt.Errorf("protocols: greedy gossip incomplete after %d rounds", maxRounds)
	}
	return rounds, nil
}
