// Differential coverage for the direction-optimizing flood stepper: a
// round pushes from the vertices the last one changed or pulls into every
// vertex, and either way it must compute exactly what a pull-only loop
// computes — the same (complete, changed, informed) triple every round and
// the same scan report — on every registered kind, over both arc sources,
// for 1-, 37- and 64-lane batches, and with its pull rounds sharded.
package systolic

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/gossip"
	"repro/internal/graph"
)

// directionParams sizes one network per registered kind at 600–3000
// vertices: large enough that n/PushDivisor lists a few dozen vertices,
// so batches switch direction mid-flood.
var directionParams = map[string][]Param{
	"path":             {Nodes(700)},
	"cycle":            {Nodes(1000)},
	"complete":         {Nodes(100)},
	"hypercube":        {Dimension(10)},
	"grid":             {Rows(30), Cols(40)},
	"torus":            {Rows(32), Cols(33)},
	"tree":             {Degree(2), Depth(9)},
	"shuffle-exchange": {Dimension(10)},
	"ccc":              {Dimension(7)},
	"butterfly":        {Degree(2), Diameter(7)},
	"wbf":              {Degree(2), Diameter(7)},
	"wbf-digraph":      {Degree(2), Diameter(7)},
	"debruijn":         {Degree(2), Diameter(10)},
	"debruijn-digraph": {Degree(2), Diameter(10)},
	"kautz":            {Degree(2), Diameter(9)},
	"kautz-digraph":    {Degree(3), Diameter(6)},
}

// directionTally counts the rounds each direction ran and the handoffs
// between them, so the differential can insist both paths were exercised.
type directionTally struct{ push, pull, toPush, toPull int }

// compareDirections floods sources over src with st, a stepper over src
// that may have flooded earlier batches, and with a pull-only StepFloodGen
// loop, failing on the first round whose triple differs. It returns each
// lane's completion round (0 for a lane that stalls) and the round each
// stalled lane last gained.
func compareDirections(t *testing.T, name string, st *floodStepper, src ArcSource, sources []int, tally *directionTally) (rounds, stalls []int) {
	t.Helper()
	n := src.N()
	st.reset(sources)
	ref := gossip.NewPackedFrontier(n)
	ref.Reset(sources)
	fg := graph.NewFloodGen(src)
	rounds, stalls = make([]int, len(sources)), make([]int, len(sources))
	var done uint64
	remaining := ref.Full()
	wasPush := true // every batch starts with a push round
	for r := 1; remaining != 0; r++ {
		if r > n+1 {
			t.Fatalf("%s: lanes %x still active after %d rounds", name, remaining, r)
		}
		push := st.pf.Listed()
		if push {
			tally.push++
		} else {
			tally.pull++
		}
		if push && !wasPush {
			tally.toPush++
		} else if !push && wasPush {
			tally.toPull++
		}
		wasPush = push
		gc, gch, gi := st.step()
		wc, wch, wi := ref.StepFloodGen(fg)
		if gc != wc || gch != wch || gi != wi {
			t.Fatalf("%s round %d (push %v): stepper (%x, %x, %d), pull-only (%x, %x, %d)",
				name, r, push, gc, gch, gi, wc, wch, wi)
		}
		for m := wc &^ done; m != 0; m &= m - 1 {
			rounds[bits.TrailingZeros64(m)] = r
		}
		done |= wc
		stalled := remaining &^ (wc | wch)
		for m := stalled; m != 0; m &= m - 1 {
			stalls[bits.TrailingZeros64(m)] = r - 1
		}
		remaining &^= wc | stalled
	}
	return rounds, stalls
}

// wantScan is the scan outcome the pull-only lane rounds imply: the rounds
// when every lane completes, otherwise the error of the first lane that
// stalled.
func wantScan(net *Network, sources, rounds, stalls []int) ([]int, string) {
	for i, r := range rounds {
		if r == 0 {
			sc := floodScan{net: net, op: "broadcast-all"}
			return nil, sc.errUnreachable(sources[i], stalls[i]).Error()
		}
	}
	return rounds, ""
}

// TestFloodDirectionDifferential: on all 16 registered kinds — the directed
// ones included — over the digraph's CSR and, where the registry attaches
// one, the generator, for batches of 1, 37 and 64 lanes, the stepper's
// per-round triples equal the pull-only loop's, and AnalyzeBroadcastAll's
// report (or error) equals the one the pull-only rounds imply. A one-way
// path and a stalled cube add frontiers that stall. Both directions and
// both handoffs must have run.
func TestFloodDirectionDifferential(t *testing.T) {
	type instance struct {
		name string
		net  *Network
	}
	var cases []instance
	for _, kind := range Kinds() {
		params, ok := directionParams[kind]
		if !ok {
			t.Errorf("registered kind %q has no direction coverage — add it to directionParams", kind)
			continue
		}
		net, err := New(kind, params...)
		if err != nil {
			t.Fatalf("building %s: %v", kind, err)
		}
		cases = append(cases, instance{kind, net})
	}
	cases = append(cases, instance{"one-way-path", newOneWayPath(700)}, instance{"stalled-cube", newStalledCube(10)})
	var tally directionTally
	directed := 0
	rng := rand.New(rand.NewSource(18))
	for _, c := range cases {
		if !c.net.G.IsSymmetric() {
			directed++
		}
		views := []*Network{c.net}
		if c.net.Gen != nil {
			views = append(views, implicitView(c.net))
		}
		n := c.net.N()
		steppers := make([]*floodStepper, len(views))
		for vi, view := range views {
			steppers[vi] = newFloodStepper(oracleSource(view), n, 1)
		}
		// Each stepper floods the 64-, 37- and 1-lane batches in turn, so
		// every batch also checks that Reset leaves no stale words behind.
		for _, lanes := range []int{64, 37, 1} {
			sources := rng.Perm(n)[:lanes]
			for vi, view := range views {
				src := oracleSource(view)
				name := fmt.Sprintf("%s/source%d/lanes%d", c.name, vi, lanes)
				rounds, stalls := compareDirections(t, name, steppers[vi], src, sources, &tally)
				wantRounds, wantErr := wantScan(view, sources, rounds, stalls)
				rep, err := AnalyzeBroadcastAll(context.Background(), view, WithSources(sources), WithWorkers(2))
				gotErr := ""
				if err != nil {
					gotErr = err.Error()
				}
				if gotErr != wantErr {
					t.Fatalf("%s: scan error %q, pull-only implies %q", name, gotErr, wantErr)
				}
				if err == nil && !reflect.DeepEqual(rep.Rounds, wantRounds) {
					t.Fatalf("%s: scan rounds %v, pull-only %v", name, rep.Rounds, wantRounds)
				}
			}
		}
	}
	if directed < 4 {
		t.Errorf("only %d directed instances covered", directed)
	}
	if tally.push == 0 || tally.pull == 0 || tally.toPush == 0 || tally.toPull == 0 {
		t.Errorf("directions not all exercised: %+v", tally)
	}
}

// TestFloodDirectionSharded: a single batch on networks past
// DefaultShardThreshold, its pull rounds split over up to four shards on the
// flood workers and its push rounds on the calling goroutine, keeps the
// pull-only triples round by round — on dense floods, a stalling one and
// a directed one. Under the race detector this covers the handoff of the
// buffers between the workers and the pushing goroutine.
func TestFloodDirectionSharded(t *testing.T) {
	hc, err := New("hypercube", Dimension(13))
	if err != nil {
		t.Fatal(err)
	}
	db, err := New("debruijn-digraph", Degree(2), Diameter(13))
	if err != nil {
		t.Fatal(err)
	}
	cube := newStalledCube(13)
	var tally directionTally
	for _, net := range []*Network{hc, db, cube} {
		if net.N() < DefaultShardThreshold {
			t.Fatalf("%s: %d vertices, below the shard threshold", net.Name, net.N())
		}
		for _, src := range []ArcSource{graph.NewDigraphSource(net.G), net.Gen} {
			st := newFloodStepper(src, net.N(), 4)
			for _, sources := range [][]int{subset64(1 << 13), {7}} {
				compareDirections(t, fmt.Sprintf("%s/%T/lanes%d", net.Name, st.shards[0].fg.Src(), len(sources)), st, src, sources, &tally)
			}
		}
	}
	if tally.push == 0 || tally.pull == 0 || tally.toPush == 0 || tally.toPull == 0 {
		t.Errorf("directions not all exercised: %+v", tally)
	}
}
