// The scalar reference scan: every source flooded alone, one bit of state
// per vertex, over the same arc source the packed driver walks. It defines
// the semantics of AnalyzeBroadcastAll, which must reproduce it byte for
// byte — reports and error strings — whatever arc source, worker count or
// sharding the scan runs with.
package systolic

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// scalarFrontier is the oracle's single-source flooding state.
type scalarFrontier struct {
	informed, prev []bool
	know           int
	buf            []int32 // in-neighbor scratch, DegBound capacity
}

func newScalarFrontier(src ArcSource) *scalarFrontier {
	n := src.N()
	return &scalarFrontier{informed: make([]bool, n), prev: make([]bool, n), buf: make([]int32, src.DegBound())}
}

func (f *scalarFrontier) reset(source int) {
	clear(f.informed)
	f.informed[source] = true
	f.know = 1
}

// step applies one flooding round — an arc (x, y) informs y iff x was
// informed at the beginning of the round — and returns the number of
// newly informed vertices.
func (f *scalarFrontier) step(src ArcSource) int {
	copy(f.prev, f.informed)
	gained := 0
	for v, done := range f.informed {
		if done {
			continue
		}
		k := src.InArcs(v, f.buf)
		for _, u := range f.buf[:k] {
			if f.prev[u] {
				f.informed[v] = true
				gained++
				break
			}
		}
	}
	f.know += gained
	return gained
}

// scalarScan floods each source of sc alone, in scan order, failing on the
// first source that exceeds the budget or stalls.
func scalarScan(ctx context.Context, sc *floodScan) error {
	n := sc.net.N()
	f := newScalarFrontier(sc.src)
	for i, s := range sc.sources {
		if err := ctx.Err(); err != nil {
			return sc.errCtx(err)
		}
		f.reset(s)
		r := 0
		for f.know < n {
			if r >= sc.cfg.budget {
				return sc.errIncomplete(s)
			}
			if f.step(sc.src) == 0 {
				return sc.errUnreachable(s, r)
			}
			r++
		}
		sc.rounds[i] = r
	}
	return nil
}

// analyzeBroadcastAllScalar is AnalyzeBroadcastAll with the scalar scan
// over src in place of the packed driver.
func analyzeBroadcastAllScalar(ctx context.Context, net *Network, src ArcSource, opts ...Option) (*BroadcastAllReport, error) {
	cfg := newConfig(opts)
	sources, explicit, err := scanSources(net, cfg.sources)
	if err != nil {
		return nil, err
	}
	rep := &BroadcastAllReport{Network: net.Name, Rounds: make([]int, len(sources))}
	if explicit {
		rep.Sources = sources
	}
	sc := &floodScan{net: net, src: src, op: "broadcast-all", sources: sources, rounds: rep.Rounds, cfg: cfg}
	if err := scalarScan(ctx, sc); err != nil {
		return nil, err
	}
	rep.summarize(net, sources)
	return rep, nil
}

// oracleSource is the arc source the oracle floods net over: the digraph
// when the network is materialized, its generator otherwise.
func oracleSource(net *Network) ArcSource {
	if net.G != nil {
		return graph.NewDigraphSource(net.G)
	}
	return net.Gen
}

// TestDigraphSourceOrInChunkAllKinds: on every registered kind, the CSR
// gather of the digraph's source equals the OR-fold of a word table over
// each vertex's InArcs, on random tables and on chunk bounds that are not
// multiples of GenChunkVerts — including a chunk that straddles one.
func TestDigraphSourceOrInChunkAllKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	nets := map[string]*Network{}
	for _, kind := range Kinds() {
		params, ok := smallParams[kind]
		if !ok {
			t.Errorf("registered kind %q has no gather coverage — add it to smallParams", kind)
			continue
		}
		net, err := New(kind, params...)
		if err != nil {
			t.Fatalf("building %s: %v", kind, err)
		}
		nets[kind] = net
	}
	big, err := New("hypercube", Dimension(13)) // two GenChunkVerts chunks
	if err != nil {
		t.Fatal(err)
	}
	nets["hypercube-d13"] = big
	for name, net := range nets {
		src := graph.NewDigraphSource(net.G)
		n := src.N()
		table := make([]uint64, n)
		for i := range table {
			table[i] = rng.Uint64()
		}
		buf := make([]int32, src.DegBound())
		want := make([]uint64, n)
		for v := range want {
			k := src.InArcs(v, buf)
			for _, u := range buf[:k] {
				want[v] |= table[u]
			}
		}
		bounds := [][2]int{{0, n}}
		for range 8 {
			lo := rng.Intn(n)
			bounds = append(bounds, [2]int{lo, lo + 1 + rng.Intn(n-lo)})
		}
		if n > graph.GenChunkVerts {
			bounds = append(bounds, [2]int{graph.GenChunkVerts - 3, graph.GenChunkVerts + 5})
		}
		for _, b := range bounds {
			lo, hi := b[0], b[1]
			out := make([]uint64, hi-lo)
			src.OrInChunk(lo, hi, table, out)
			for i, w := range out {
				if w != want[lo+i] {
					t.Fatalf("%s: OrInChunk [%d, %d) vertex %d = %x, InArcs fold %x", name, lo, hi, lo+i, w, want[lo+i])
				}
			}
		}
	}
}

// TestCertifyBroadcastImplicitUnreachable: implicit certification of a
// source whose frontier stalls fails with ErrUnreachable — not a truncated
// certificate, not ErrIncomplete — and names the stall round, serially and
// with its rounds sharded across the workers. Both networks are three
// GenChunkVerts chunks long, past DefaultShardThreshold. The one-way
// path's frontier is one vertex wide, so every round pushes; the stalled
// cube's middle rounds are dense and pull, and probes on both its arc
// sources must see them gathered on more than one goroutine.
func TestCertifyBroadcastImplicitUnreachable(t *testing.T) {
	path := newOneWayPath(2*graph.GenChunkVerts + 1)
	cube := newStalledCube(13)
	pathProbed, _ := probedViews(path)
	probed, probes := probedViews(cube)
	for _, c := range []struct {
		views  []*Network
		source int
		stall  int
	}{
		{append([]*Network{implicitView(path)}, pathProbed...), path.N() - 3, 2}, // informs the last two vertices, then stalls
		{append([]*Network{implicitView(cube)}, probed...), 5, 13},
	} {
		name := c.views[0].Name
		want := fmt.Sprintf("systolic: source cannot reach every vertex: certify broadcast on %s from source %d (frontier stalled after %d rounds)", name, c.source, c.stall)
		for i, view := range c.views {
			for _, workers := range []int{1, 4} {
				cert, err := CertifyBroadcast(context.Background(), view, c.source, WithWorkers(workers))
				if cert != nil || !errors.Is(err, ErrUnreachable) || errors.Is(err, ErrIncomplete) {
					t.Fatalf("%s view %d workers %d: certificate %+v, err %v: want ErrUnreachable and not ErrIncomplete", name, i, workers, cert, err)
				}
				if err.Error() != want {
					t.Fatalf("%s view %d workers %d: stalled certification message:\n  got  %q\n  want %q", name, i, workers, err, want)
				}
			}
		}
	}
	for i, pr := range probes {
		if g := pr.goroutines(); g < 2 {
			t.Errorf("probe %d: rounds gathered on %d goroutine(s), want a sharded step", i, g)
		}
	}
}
