package graph

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DiameterParallel computes the directed diameter with one BFS per source
// fanned out over worker goroutines. It returns Unreached if the digraph is
// not strongly connected. Results are identical to Diameter; use this for
// the larger instances in experiments (n in the thousands).
func (g *Digraph) DiameterParallel() int {
	if g.n == 0 {
		return 0
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > g.n {
		workers = g.n
	}
	var next int64 = -1
	var diam int64
	var disconnected atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Reusable per-worker buffers keep the hot loop allocation-free.
			dist := make([]int, g.n)
			queue := make([]int, 0, g.n)
			for {
				u := int(atomic.AddInt64(&next, 1))
				if u >= g.n || disconnected.Load() {
					return
				}
				ecc := g.eccentricityInto(u, dist, queue)
				if ecc == Unreached {
					disconnected.Store(true)
					return
				}
				for {
					cur := atomic.LoadInt64(&diam)
					if int64(ecc) <= cur || atomic.CompareAndSwapInt64(&diam, cur, int64(ecc)) {
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	if disconnected.Load() {
		return Unreached
	}
	return int(diam)
}

// eccentricityInto is the allocation-free BFS eccentricity used by the
// parallel diameter workers. dist and queue are scratch buffers of length
// ≥ n; the caller must not share them between goroutines.
func (g *Digraph) eccentricityInto(src int, dist []int, queue []int) int {
	for i := range dist {
		dist[i] = Unreached
	}
	dist[src] = 0
	queue = queue[:0]
	queue = append(queue, src)
	ecc := 0
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range g.out[u] {
			if dist[v] == Unreached {
				dist[v] = dist[u] + 1
				if dist[v] > ecc {
					ecc = dist[v]
				}
				queue = append(queue, v)
			}
		}
	}
	if len(queue) < g.n {
		return Unreached
	}
	return ecc
}
