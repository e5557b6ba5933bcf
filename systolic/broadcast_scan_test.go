// Differential coverage for the sources-aware broadcast scan: the packed
// 64-source driver must reproduce the scalar per-source oracle exactly
// — same reports, same errors, same trace — on every registered topology
// kind, over both arc sources, on ragged multi-batch scans, on subsets,
// and for every worker count.
package systolic

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/gossip"
	"repro/internal/graph"
)

// scanBoth runs the scalar oracle and AnalyzeBroadcastAll with opts over
// both arc sources — the digraph's CSR and, when the network carries one,
// its generator (through an implicit view of the network) — serially and
// with batches in parallel, and demands every report deep-equal the oracle's (or
// every failure carry its exact error text). It returns the oracle's
// report, nil on failure. TestBroadcastScanShardedRounds covers the
// single-batch vertex-sharded path, which needs larger networks.
func scanBoth(t *testing.T, net *Network, opts ...Option) *BroadcastAllReport {
	t.Helper()
	ctx := context.Background()
	want, werr := analyzeBroadcastAllScalar(ctx, net, oracleSource(net), opts...)
	views := []*Network{net}
	if net.Gen != nil {
		views = append(views, implicitView(net))
	}
	modes := [][]Option{{WithWorkers(1)}, {WithWorkers(4)}}
	for si, view := range views {
		for mi, mode := range modes {
			// Caller options come last, so an explicit WithWorkers wins.
			all := append(append([]Option(nil), mode...), opts...)
			got, err := AnalyzeBroadcastAll(ctx, view, all...)
			if (err == nil) != (werr == nil) {
				t.Fatalf("%s source %d mode %d: packed err %v, oracle err %v", net.Name, si, mi, err, werr)
			}
			if err != nil {
				if err.Error() != werr.Error() {
					t.Fatalf("%s source %d mode %d: error parity broken:\n  packed: %v\n  oracle: %v", net.Name, si, mi, err, werr)
				}
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s source %d mode %d: packed scan diverges from the oracle:\n  packed: %+v\n  oracle: %+v",
					net.Name, si, mi, got, want)
			}
		}
	}
	return want
}

// implicitView returns net without its digraph, so scans and
// certifications flood its generator. Name and degree parameter are
// unchanged, so reports and error text equal those over the digraph.
func implicitView(net *Network) *Network {
	imp := *net
	imp.G = nil
	return &imp
}

// newOneWayPath builds the directed path 0 → 1 → … → n−1, carrying both
// its digraph and the digraph's arc source as generator. Every source's
// frontier stalls at the end of the path.
func newOneWayPath(n int) *Network {
	g := graph.New(n)
	for v := 0; v+1 < n; v++ {
		g.AddArc(v, v+1)
	}
	net := Plain("one-way-path", g)
	net.Gen = graph.NewDigraphSource(g)
	return net
}

// newStalledCube builds the hypercube Q_d plus one extra vertex 2^d with a
// single out-arc into the cube and no in-arc, carrying both its digraph
// and the digraph's arc source as generator. Flooding from a cube vertex
// informs the cube through d rounds whose middle ones are dense (so they
// pull, sharded past DefaultShardThreshold), then stalls short of the
// extra vertex.
func newStalledCube(d int) *Network {
	g := graph.New(1<<d + 1)
	for v := 0; v < 1<<d; v++ {
		for i := 0; i < d; i++ {
			g.AddArc(v, v^(1<<i))
		}
	}
	g.AddArc(1<<d, 0)
	net := Plain("stalled-cube", g)
	net.Gen = graph.NewDigraphSource(g)
	return net
}

// gatherProbe is an arc source with the OrGatherer fast path that records
// the goroutines gathering from it. A sharded round gathers on the calling
// goroutine and on the flood workers, so two or more recorded goroutines
// prove the scan split its rounds into more than one shard.
type gatherProbe struct {
	ArcSource // must implement graph.OrGatherer
	mu        sync.Mutex
	seen      map[string]bool
}

func (p *gatherProbe) OrInChunk(lo, hi int, table, out []uint64) {
	var buf [64]byte
	id := string(bytes.Fields(buf[:runtime.Stack(buf[:], false)])[1]) // "goroutine <id> [...]"
	p.mu.Lock()
	p.seen[id] = true
	p.mu.Unlock()
	p.ArcSource.(graph.OrGatherer).OrInChunk(lo, hi, table, out)
}

func (p *gatherProbe) goroutines() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.seen)
}

// probedViews returns implicit views of net flooding, through a
// gatherProbe each, the digraph's CSR and the network's generator.
func probedViews(net *Network) ([]*Network, []*gatherProbe) {
	var views []*Network
	var probes []*gatherProbe
	for _, src := range []ArcSource{graph.NewDigraphSource(net.G), net.Gen} {
		pr := &gatherProbe{ArcSource: src, seen: map[string]bool{}}
		view := implicitView(net)
		view.Gen = pr
		views, probes = append(views, view), append(probes, pr)
	}
	return views, probes
}

// TestBroadcastScanDifferentialAllKinds: for every registered kind the
// packed scan equals the scalar oracle — full scans and a small subset
// — and every measured round count is the source's directed eccentricity.
func TestBroadcastScanDifferentialAllKinds(t *testing.T) {
	for _, kind := range Kinds() {
		params, ok := smallParams[kind]
		if !ok {
			t.Errorf("registered kind %q has no scan coverage — add it to smallParams", kind)
			continue
		}
		t.Run(kind, func(t *testing.T) {
			net, err := New(kind, params...)
			if err != nil {
				t.Fatalf("building %s: %v", kind, err)
			}
			n := net.G.N()
			full := scanBoth(t, net)
			if full == nil {
				t.Fatal("full scan failed")
			}
			if len(full.Rounds) != n || full.Sources != nil {
				t.Fatalf("full scan shape: %d rounds, sources %v", len(full.Rounds), full.Sources)
			}
			for v := 0; v < n; v++ {
				if ecc := net.G.Eccentricity(v); full.Rounds[v] != ecc {
					t.Errorf("source %d: measured %d rounds, eccentricity %d", v, full.Rounds[v], ecc)
				}
			}
			sub := scanBoth(t, net, WithSources([]int{n - 1, 0}))
			if sub == nil {
				t.Fatal("subset scan failed")
			}
			if !reflect.DeepEqual(sub.Sources, []int{n - 1, 0}) {
				t.Fatalf("subset sources = %v", sub.Sources)
			}
			if sub.Rounds[0] != full.Rounds[n-1] || sub.Rounds[1] != full.Rounds[0] {
				t.Errorf("subset rows %v disagree with full rows (%d, %d)",
					sub.Rounds, full.Rounds[n-1], full.Rounds[0])
			}
		})
	}
}

// TestBroadcastScanMultiBatchRagged: scans spanning several packed batches
// with a ragged final batch (sources % 64 != 0) stay arc-source- and
// worker-count-independent.
func TestBroadcastScanMultiBatchRagged(t *testing.T) {
	net, err := New("cycle", Nodes(150)) // 3 batches: 64 + 64 + 22
	if err != nil {
		t.Fatal(err)
	}
	serial := scanBoth(t, net, WithWorkers(1))
	parallel := scanBoth(t, net, WithWorkers(5))
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("worker count changed the report:\n  serial:   %+v\n  parallel: %+v", serial, parallel)
	}
	if serial.Worst != 75 || serial.Best != 75 || serial.MeanRounds != 75 {
		t.Fatalf("cycle eccentricities: %+v", serial)
	}
	if len(serial.Histogram) != 1 || serial.Histogram[0] != (RoundsBucket{Rounds: 75, Count: 150}) {
		t.Fatalf("histogram = %v, want one bucket of 150 sources at 75 rounds", serial.Histogram)
	}

	// A ragged subset (70 sources = 64 + 6) in non-monotone order.
	hc, err := New("hypercube", Dimension(8))
	if err != nil {
		t.Fatal(err)
	}
	sub := make([]int, 70)
	for i := range sub {
		sub[i] = (37 * i) % hc.G.N() // distinct mod 256: gcd(37, 256) = 1
	}
	rep := scanBoth(t, hc, WithSources(sub), WithWorkers(3))
	if rep == nil {
		t.Fatal("ragged subset scan failed")
	}
	for i, s := range sub {
		if rep.Rounds[i] != 8 {
			t.Errorf("source %d: %d rounds, want the hypercube diameter 8", s, rep.Rounds[i])
		}
	}
}

// TestBroadcastScanShardedRounds: a single batch on a network of several
// GenChunkVerts chunks, past DefaultShardThreshold, splits its pull rounds
// into vertex ranges across the workers. Over both arc sources the sharded
// scan matches the oracle — on stalled networks, its exact error text —
// and, on the networks with dense rounds, probes on both sources see the
// rounds gathered on more than one goroutine, so the case cannot quietly
// run serially. The one-way path's frontiers stay a vertex wide, so its
// rounds all push and it gathers nothing.
func TestBroadcastScanShardedRounds(t *testing.T) {
	hc, err := New("hypercube", Dimension(13)) // 8192 vertices: 2 chunks
	if err != nil {
		t.Fatal(err)
	}
	cube := newStalledCube(13)                       // 8193 vertices: 3 chunks
	path := newOneWayPath(2*graph.GenChunkVerts + 1) // 3 chunks
	tail := make([]int, gossip.PackedLanes)
	for i := range tail {
		tail[i] = path.N() - 2*gossip.PackedLanes + 2*i // stall within 128 rounds
	}
	for _, c := range []struct {
		net     *Network
		sources []int
		dense   bool
	}{{hc, subset64(hc.N()), true}, {cube, subset64(hc.N()), true}, {path, tail, false}} {
		want := scanBoth(t, c.net, WithSources(c.sources))
		_, werr := AnalyzeBroadcastAll(context.Background(), c.net, WithSources(c.sources), WithWorkers(1))
		probed, probes := probedViews(c.net)
		for i, view := range probed {
			got, err := AnalyzeBroadcastAll(context.Background(), view, WithSources(c.sources), WithWorkers(4))
			if !reflect.DeepEqual(got, want) || fmt.Sprint(err) != fmt.Sprint(werr) {
				t.Fatalf("%s probe %d: sharded scan %+v, %v; serial %+v, %v", c.net.Name, i, got, err, want, werr)
			}
			if g := probes[i].goroutines(); c.dense && g < 2 {
				t.Errorf("%s probe %d: rounds gathered on %d goroutine(s), want a sharded step", c.net.Name, i, g)
			}
		}
	}
}

// TestBroadcastScanSubsetEqualsFull: a subset scan is exactly the
// corresponding rows of the full scan, with extremes and statistics
// recomputed over the subset only.
func TestBroadcastScanSubsetEqualsFull(t *testing.T) {
	net, err := New("tree", Degree(2), Depth(3))
	if err != nil {
		t.Fatal(err)
	}
	full := scanBoth(t, net)
	sub := scanBoth(t, net, WithSources([]int{6, 0, 11}))
	for i, s := range []int{6, 0, 11} {
		if sub.Rounds[i] != full.Rounds[s] {
			t.Errorf("subset row %d (source %d) = %d, full scan has %d", i, s, sub.Rounds[i], full.Rounds[s])
		}
	}
	count := 0
	for _, b := range sub.Histogram {
		count += b.Count
	}
	if count != 3 {
		t.Errorf("subset histogram covers %d sources, want 3: %v", count, sub.Histogram)
	}
	if sub.Rounds[0] > sub.Worst || sub.Best > sub.Worst {
		t.Errorf("subset extremes inconsistent: %+v", sub)
	}
}

// TestBroadcastScanBadSources: WithSources validation fails with
// ErrBadParam before any flooding runs.
func TestBroadcastScanBadSources(t *testing.T) {
	net, err := New("cycle", Nodes(5))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for name, sources := range map[string][]int{
		"empty":        {},
		"negative":     {-1},
		"out-of-range": {5},
		"duplicate":    {1, 3, 1},
	} {
		if _, err := AnalyzeBroadcastAll(ctx, net, WithSources(sources)); !errors.Is(err, ErrBadParam) {
			t.Errorf("%s sources: err = %v, want ErrBadParam", name, err)
		}
		scanBoth(t, net, WithSources(sources))
	}
}

// TestBroadcastScanErrorParity pins the packed driver to the oracle's
// exact error text — not merely the same sentinel — for budget truncation
// and for a stalled (unreachable) frontier, including the productive-round
// count the unreachable message carries.
func TestBroadcastScanErrorParity(t *testing.T) {
	ctx := context.Background()

	path, err := New("path", Nodes(6))
	if err != nil {
		t.Fatal(err)
	}
	scanBoth(t, path, WithRoundBudget(2))
	_, perr := AnalyzeBroadcastAll(ctx, path, WithRoundBudget(2))
	if !errors.Is(perr, ErrIncomplete) {
		t.Fatalf("truncated scan: err = %v, want ErrIncomplete", perr)
	}

	// 0 → 1 → 2 with no return arcs: source 1 reaches only vertex 2, and
	// its frontier stalls after exactly 1 productive round.
	g := graph.New(3)
	g.AddArc(0, 1)
	g.AddArc(1, 2)
	oneway := Plain("one-way-path", g)
	scanBoth(t, oneway)
	_, perr = AnalyzeBroadcastAll(ctx, oneway)
	if !errors.Is(perr, ErrUnreachable) || errors.Is(perr, ErrIncomplete) {
		t.Fatalf("stalled scan: err = %v, want ErrUnreachable and not ErrIncomplete", perr)
	}
	want := "systolic: source cannot reach every vertex: broadcast-all on one-way-path from source 1 (frontier stalled after 1 rounds)"
	if perr.Error() != want {
		t.Fatalf("stalled scan message:\n  got  %q\n  want %q", perr, want)
	}
}

// scanTrace records the ScanRound stream; safe for concurrent batches.
type scanTrace struct {
	mu     sync.Mutex
	rounds int // plain Observer fallback calls
	events []scanEvent
}

type scanEvent struct{ batch, round, cols, total int }

func (tr *scanTrace) Round(round, knowledge, target int) {
	tr.mu.Lock()
	tr.rounds++
	tr.mu.Unlock()
}

func (tr *scanTrace) ScanRound(batch, round, cols, total int) {
	tr.mu.Lock()
	tr.events = append(tr.events, scanEvent{batch, round, cols, total})
	tr.mu.Unlock()
}

// TestBroadcastScanTraceSeam: a ScanObserver sees per-batch progress —
// each (batch, round) exactly once, with monotone informed columns per
// batch and each batch ending at lanes × n columns. A plain Observer still
// receives Round calls.
func TestBroadcastScanTraceSeam(t *testing.T) {
	net, err := New("hypercube", Dimension(7)) // 128 vertices: two full batches
	if err != nil {
		t.Fatal(err)
	}
	n := net.G.N()
	t.Run("packed", func(t *testing.T) {
		tr := &scanTrace{}
		if _, err := AnalyzeBroadcastAll(context.Background(), net, WithTrace(tr), WithWorkers(2)); err != nil {
			t.Fatal(err)
		}
		if tr.rounds != 0 {
			t.Fatalf("ScanObserver also received %d plain Round calls", tr.rounds)
		}
		perBatch := map[int][]scanEvent{}
		for _, ev := range tr.events {
			perBatch[ev.batch] = append(perBatch[ev.batch], ev)
		}
		if len(perBatch) != 2 {
			t.Fatalf("saw batches %v, want exactly {0, 1}", perBatch)
		}
		for batch, evs := range perBatch {
			sort.Slice(evs, func(i, j int) bool { return evs[i].round < evs[j].round })
			last := evs[len(evs)-1]
			if last.total != gossip.PackedLanes*n || last.cols != last.total {
				t.Fatalf("batch %d ends at %d/%d columns, want %d/%d",
					batch, last.cols, last.total, gossip.PackedLanes*n, gossip.PackedLanes*n)
			}
			prev := scanEvent{round: 0, cols: gossip.PackedLanes} // sources start informed
			for _, ev := range evs {
				if ev.round != prev.round+1 || ev.cols < prev.cols {
					t.Fatalf("batch %d: trace not a monotone once-per-round stream: %v after %v", batch, ev, prev)
				}
				prev = ev
			}
		}
	})

	calls := 0
	obs := ObserverFunc(func(round, knowledge, target int) { calls++ })
	if _, err := AnalyzeBroadcastAll(context.Background(), net, WithTrace(obs), WithWorkers(1)); err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("plain Observer received no Round calls from a scan")
	}
}

// TestBroadcastAllBound pins the per-source certification floor the scan
// now evaluates in its summary pass: the c(d)·log₂n floor (its certified
// finite-n part) is computed once, every source's measured rounds are
// compared against it, and the report surfaces the extremes plus the first
// violating source. The serial and parallel scans and the oracle must agree.
func TestBroadcastAllBound(t *testing.T) {
	ctx := context.Background()
	// Hypercube d=5: every eccentricity is 5 = ⌈log₂ 32⌉, so the floor is
	// met with equality from every source.
	net, err := New("hypercube", Dimension(5))
	if err != nil {
		t.Fatal(err)
	}
	var bounds []*BroadcastBound
	for _, scan := range []func() (*BroadcastAllReport, error){
		func() (*BroadcastAllReport, error) { return AnalyzeBroadcastAll(ctx, net) },
		func() (*BroadcastAllReport, error) { return AnalyzeBroadcastAll(ctx, net, WithWorkers(4)) },
		func() (*BroadcastAllReport, error) { return analyzeBroadcastAllScalar(ctx, net, oracleSource(net)) },
	} {
		rep, err := scan()
		if err != nil {
			t.Fatal(err)
		}
		b := rep.Bound
		if b == nil {
			t.Fatal("scan report carries no bound summary")
		}
		if b.Source != -1 || !b.Applicable || b.ScannedSources != 32 {
			t.Fatalf("bound header: %+v", b)
		}
		if b.MinRounds != rep.Best || b.MaxRounds != rep.Worst || b.MinRounds != 5 || b.MaxRounds != 5 {
			t.Fatalf("bound extremes %d..%d, scan %d..%d, want 5..5", b.MinRounds, b.MaxRounds, rep.Best, rep.Worst)
		}
		if !b.Respected || b.Violations != 0 || b.ViolatingSource != nil {
			t.Fatalf("hypercube floor should hold everywhere: %+v", b)
		}
		if b.CBound != 5 {
			t.Fatalf("certified floor %d, want 5", b.CBound)
		}
		bounds = append(bounds, b)
	}
	for i, b := range bounds[1:] {
		if *b != *bounds[0] {
			t.Fatalf("scan %d bound diverges: %+v vs %+v", i+1, b, bounds[0])
		}
	}

	// Complete graph n=16: flooding reaches everyone in one round, below
	// the ⌈log₂ 16⌉ = 4 information floor of matching-model broadcast, so
	// every source violates and the first one is named.
	net, err = New("complete", Nodes(16))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := AnalyzeBroadcastAll(ctx, net)
	if err != nil {
		t.Fatal(err)
	}
	b := rep.Bound
	if b == nil || b.Respected || b.Violations != 16 {
		t.Fatalf("complete-graph scan should violate the floor everywhere: %+v", b)
	}
	if b.ViolatingSource == nil || *b.ViolatingSource != 0 {
		t.Fatalf("first violating source: %+v", b.ViolatingSource)
	}
	if b.MinRounds != 1 || b.MaxRounds != 1 || b.CBound != 4 {
		t.Fatalf("complete-graph extremes %d..%d floor %d, want 1..1 floor 4", b.MinRounds, b.MaxRounds, b.CBound)
	}
}

// TestFloodStepperAllocs: sharded rounds hand work to the parked flood
// workers, so a round allocates nothing and a scan's allocation count is
// fixed, whatever its round count: single-batch sharded scans of
// hypercubes d=14 and d=15 (14 and 15 rounds, four shards each) allocate
// the same, run after run.
func TestFloodStepperAllocs(t *testing.T) {
	net, err := New("hypercube", Dimension(14))
	if err != nil {
		t.Fatal(err)
	}
	st := newFloodStepper(net.Gen, net.N(), 4)
	if len(st.shards) != 4 {
		t.Fatalf("%d shards, want 4", len(st.shards))
	}
	st.reset([]int{0, 5, 77})
	if allocs := testing.AllocsPerRun(20, func() { st.step() }); allocs != 0 {
		t.Fatalf("sharded round allocated %.1f times, want 0", allocs)
	}

	var counts []float64
	for _, dim := range []int{14, 15, 14} {
		net, err := New("hypercube", Dimension(dim))
		if err != nil {
			t.Fatal(err)
		}
		opts := []Option{WithSources(subset64(net.N())), WithWorkers(4)}
		counts = append(counts, testing.AllocsPerRun(5, func() {
			if _, err := AnalyzeBroadcastAll(context.Background(), net, opts...); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if counts[0] != counts[1] || counts[0] != counts[2] {
		t.Fatalf("scan allocations vary with the round count or between runs: %v", counts)
	}
}

// TestFloodShardScratchLines: the shards of one stepper write their arc
// scratch on every vertex of a pull round, so no two shards' ArcBuf may
// touch a common cache line — on the InArcs path (de Bruijn, 4 ids) and on
// the OrGatherer fast path (hypercube, whose scratch serves push rounds).
func TestFloodShardScratchLines(t *testing.T) {
	for _, params := range []struct {
		kind string
		p    []Param
	}{{"debruijn", []Param{Degree(2), Diameter(14)}}, {"hypercube", []Param{Dimension(14)}}} {
		net, err := New(params.kind, params.p...)
		if err != nil {
			t.Fatal(err)
		}
		st := newFloodStepper(net.Gen, net.N(), 4)
		if len(st.shards) != 4 {
			t.Fatalf("%s: %d shards, want 4", net.Name, len(st.shards))
		}
		for i := range st.shards {
			buf := st.shards[i].fg.ArcBuf()
			if len(buf) != net.Gen.DegBound() {
				t.Fatalf("%s shard %d: %d ids of scratch, want %d", net.Name, i, len(buf), net.Gen.DegBound())
			}
			lo := uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
			hi := lo + uintptr(4*len(buf)) - 1
			for j := range i {
				o := st.shards[j].fg.ArcBuf()
				olo := uintptr(unsafe.Pointer(unsafe.SliceData(o)))
				ohi := olo + uintptr(4*len(o)) - 1
				if lo/64 <= ohi/64 && olo/64 <= hi/64 {
					t.Fatalf("%s: shards %d and %d share a cache line", net.Name, j, i)
				}
			}
		}
	}
}

// TestFloodWorkersConcurrentScans: sharded scans running at once share
// the flood workers and each still reports exactly what a serial scan
// does.
func TestFloodWorkersConcurrentScans(t *testing.T) {
	ctx := context.Background()
	var nets []*Network
	for _, dim := range []int{13, 14} {
		net, err := New("hypercube", Dimension(dim))
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, net)
	}
	want := make([]*BroadcastAllReport, len(nets))
	for i, net := range nets {
		rep, err := AnalyzeBroadcastAll(ctx, net, WithSources(subset64(net.N())), WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = rep
	}
	var wg sync.WaitGroup
	for g := range 6 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			i := g % len(nets)
			net := nets[i]
			got, err := AnalyzeBroadcastAll(ctx, net, WithSources(subset64(net.N())), WithWorkers(2+g%3))
			if err != nil {
				t.Error(err)
				return
			}
			if !reflect.DeepEqual(got, want[i]) {
				t.Errorf("%s: concurrent sharded scan diverges:\n  got:  %+v\n  want: %+v", net.Name, got, want[i])
			}
		}()
	}
	wg.Wait()
}
