package graph

// Unreached marks vertices not reachable from the BFS sources.
const Unreached = -1

// BFS returns the vector of directed distances from src; unreachable
// vertices get Unreached.
func (g *Digraph) BFS(src int) []int {
	return g.MultiSourceBFS([]int{src})
}

// MultiSourceBFS returns distances from the nearest of the given sources.
//
//gossip:allowpanic range guard: indices come from trusted topology constructions
func (g *Digraph) MultiSourceBFS(srcs []int) []int {
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = Unreached
	}
	queue := make([]int, 0, g.n)
	for _, s := range srcs {
		if s < 0 || s >= g.n {
			panic("graph: BFS source out of range")
		}
		if dist[s] == Unreached {
			dist[s] = 0
			queue = append(queue, s)
		}
	}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range g.out[u] {
			if dist[v] == Unreached {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// Eccentricity returns the maximum directed distance from u to any vertex,
// or Unreached if some vertex is unreachable.
func (g *Digraph) Eccentricity(u int) int {
	dist := g.BFS(u)
	ecc := 0
	for _, d := range dist {
		if d == Unreached {
			return Unreached
		}
		if d > ecc {
			ecc = d
		}
	}
	return ecc
}

// Diameter returns the maximum directed eccentricity, or Unreached if the
// digraph is not strongly connected. It runs a BFS per vertex, so it is
// intended for the moderate instance sizes used in tests and experiments.
// The result is memoized (and invalidated by AddArc/AddEdge), so the bound
// evaluation inside every certification of a shared network pays the
// all-pairs BFS once; concurrent callers serialize on the memo.
func (g *Digraph) Diameter() int {
	g.diamMu.Lock()
	defer g.diamMu.Unlock()
	if g.diamArcs == g.m+1 {
		return g.diamVal
	}
	diam := 0
	for u := 0; u < g.n; u++ {
		ecc := g.Eccentricity(u)
		if ecc == Unreached {
			diam = Unreached
			break
		}
		if ecc > diam {
			diam = ecc
		}
	}
	g.diamVal, g.diamArcs = diam, g.m+1
	return diam
}

// DistBetweenSets returns min over x∈from, y∈to of dist(x,y), the quantity
// bounded by Definition 3.5 (⟨α,ℓ⟩-separators). Returns Unreached if no
// vertex of to is reachable from from.
//
//gossip:allowpanic range guard: indices come from trusted topology constructions
func (g *Digraph) DistBetweenSets(from, to []int) int {
	if len(from) == 0 || len(to) == 0 {
		panic("graph: DistBetweenSets with empty set")
	}
	dist := g.MultiSourceBFS(from)
	best := Unreached
	for _, y := range to {
		d := dist[y]
		if d == Unreached {
			continue
		}
		if best == Unreached || d < best {
			best = d
		}
	}
	return best
}

// IsStronglyConnected reports whether every vertex is reachable from vertex 0
// in both g and its reverse, which for a finite digraph is equivalent to
// strong connectivity.
func (g *Digraph) IsStronglyConnected() bool {
	if g.n == 0 {
		return true
	}
	for _, d := range g.BFS(0) {
		if d == Unreached {
			return false
		}
	}
	for _, d := range g.Reverse().BFS(0) {
		if d == Unreached {
			return false
		}
	}
	return true
}
