package graph

import (
	"container/heap"
	"fmt"
)

// Weights assigns a positive length to every arc of a digraph.
type Weights map[Arc]int

// UnitWeights returns the all-ones weight function for g.
func UnitWeights(g *Digraph) Weights {
	w := make(Weights, g.M())
	for _, a := range g.Arcs() {
		w[a] = 1
	}
	return w
}

// Validate checks that every arc of g has a positive weight.
func (w Weights) Validate(g *Digraph) error {
	for _, a := range g.Arcs() {
		wt, ok := w[a]
		if !ok {
			return fmt.Errorf("graph: arc (%d,%d) has no weight", a.From, a.To)
		}
		if wt <= 0 {
			return fmt.Errorf("graph: arc (%d,%d) has nonpositive weight %d", a.From, a.To, wt)
		}
	}
	return nil
}

// item is a priority-queue entry for Dijkstra.
type item struct {
	v, dist int
}

type pq []item

func (q pq) Len() int            { return len(q) }
func (q pq) Less(i, j int) bool  { return q[i].dist < q[j].dist }
func (q pq) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x interface{}) { *q = append(*q, x.(item)) }
func (q *pq) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// WeightedDistances returns the weighted shortest-path distances from src
// under w (Dijkstra); unreachable vertices get Unreached.
func (g *Digraph) WeightedDistances(src int, w Weights) []int {
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = Unreached
	}
	dist[src] = 0
	q := &pq{{v: src, dist: 0}}
	for q.Len() > 0 {
		it := heap.Pop(q).(item)
		if it.dist > dist[it.v] {
			continue // stale entry
		}
		for _, u := range g.out[it.v] {
			nd := it.dist + w[Arc{From: it.v, To: u}]
			if dist[u] == Unreached || nd < dist[u] {
				dist[u] = nd
				heap.Push(q, item{v: u, dist: nd})
			}
		}
	}
	return dist
}

// WeightedDiameter returns the maximum weighted eccentricity, or Unreached
// if the digraph is not strongly connected.
func (g *Digraph) WeightedDiameter(w Weights) int {
	diam := 0
	for v := 0; v < g.n; v++ {
		dist := g.WeightedDistances(v, w)
		for _, d := range dist {
			if d == Unreached {
				return Unreached
			}
			if d > diam {
				diam = d
			}
		}
	}
	return diam
}
