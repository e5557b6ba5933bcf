// Differential coverage for the schedule compiler: executing a compiled
// Program must be byte-identical to interpreting the protocol's arc slices,
// round by round, on every backend (serial state, sharded state, packed
// frontier, completion certificate), and the compiled hot path must not
// allocate. The tests live in the external package so they can drive the
// core through real protocol constructions.
package gossip_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/gossip"
	"repro/internal/graph"
	"repro/internal/protocols"
	"repro/internal/topology"
)

// randomMatchingProtocol builds a random valid protocol on g: each round
// greedily packs a random subset of arcs into a matching. Systolic or
// finite, per the flag.
func randomMatchingProtocol(rng *rand.Rand, g *graph.Digraph, rounds int, systolic bool, mode gossip.Mode) *gossip.Protocol {
	arcs := g.Arcs()
	var rs [][]graph.Arc
	for r := 0; r < rounds; r++ {
		perm := rng.Perm(len(arcs))
		busy := make(map[int]struct{})
		var round []graph.Arc
		for _, i := range perm {
			a := arcs[i]
			if rng.Intn(2) == 0 {
				continue
			}
			if _, ok := busy[a.From]; ok {
				continue
			}
			if _, ok := busy[a.To]; ok {
				continue
			}
			busy[a.From] = struct{}{}
			busy[a.To] = struct{}{}
			round = append(round, a)
		}
		rs = append(rs, round)
	}
	if systolic {
		return gossip.NewSystolic(rs, mode)
	}
	return gossip.NewFinite(rs, mode)
}

func randomSymmetricGraph(rng *rand.Rand, n int) *graph.Digraph {
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.AddEdge(rng.Intn(v), v)
	}
	for extra := 0; extra < n; extra++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && !g.HasArc(u, v) {
			g.AddEdge(u, v)
		}
	}
	return g
}

// TestCompiledStepMatchesInterpreted is the fuzz-style core differential:
// across random graphs and random (systolic and finite) protocols, the
// compiled gossip state — serial and sharded — and the compiled frontier
// must match the interpreted backends after every round, byte for byte.
func TestCompiledStepMatchesInterpreted(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 30; trial++ {
		n := 4 + rng.Intn(9)
		g := randomSymmetricGraph(rng, n)
		p := randomMatchingProtocol(rng, g, 3+rng.Intn(8), trial%2 == 0, gossip.HalfDuplex)
		if err := p.Validate(g); err != nil {
			t.Fatalf("trial %d: generator produced invalid protocol: %v", trial, err)
		}
		prog, err := gossip.Compile(p, n, n)
		if err != nil {
			t.Fatalf("trial %d: compile: %v", trial, err)
		}
		if got, want := prog.Fingerprint(), p.Fingerprint(); got != want {
			t.Fatalf("trial %d: program fingerprint %s, protocol %s", trial, got, want)
		}

		interp := gossip.NewState(n)
		compiled := gossip.NewState(n)
		sharded := gossip.NewState(n)
		sharded.SetShards(1 + rng.Intn(4))

		bprog, err := gossip.Compile(p, n, 1)
		if err != nil {
			t.Fatalf("trial %d: broadcast compile: %v", trial, err)
		}
		src := rng.Intn(n)
		interpFr := gossip.NewFrontierState(n, src)
		compiledFr := gossip.NewFrontierState(n, src)

		rounds := 4 * (p.Len() + 1) // past the end of finite protocols on purpose
		for r := -1; r < rounds; r++ {
			interp.Step(p.Round(r))
			compiled.StepProgram(prog, r)
			sharded.StepProgram(prog, r)
			want := interp.Export()
			if !bytes.Equal(compiled.Export(), want) {
				t.Fatalf("trial %d round %d: serial compiled state diverged", trial, r)
			}
			if !bytes.Equal(sharded.Export(), want) {
				t.Fatalf("trial %d round %d: sharded compiled state diverged", trial, r)
			}
			if compiled.TotalKnowledge() != interp.TotalKnowledge() ||
				sharded.TotalKnowledge() != interp.TotalKnowledge() {
				t.Fatalf("trial %d round %d: knowledge counters diverged", trial, r)
			}
			if compiled.GossipComplete() != interp.GossipComplete() {
				t.Fatalf("trial %d round %d: completion flags diverged", trial, r)
			}

			wantGain := interpFr.Step(p.Round(r))
			if gotGain := compiledFr.StepProgram(bprog, r); gotGain != wantGain {
				t.Fatalf("trial %d round %d: frontier gains %d vs %d", trial, r, gotGain, wantGain)
			}
			if !bytes.Equal(compiledFr.Export(), interpFr.Export()) {
				t.Fatalf("trial %d round %d: frontier sets diverged", trial, r)
			}
		}
	}
}

// admissibleRound is the test's own statement of the Compile contract: a
// round is admitted iff every vertex is an endpoint of at most one arc, or
// of exactly two arcs forming one opposite pair.
func admissibleRound(round []graph.Arc) bool {
	touching := make(map[int][]graph.Arc)
	for _, a := range round {
		if a.From == a.To {
			return false
		}
		touching[a.From] = append(touching[a.From], a)
		touching[a.To] = append(touching[a.To], a)
	}
	for _, arcs := range touching {
		switch len(arcs) {
		case 1:
		case 2:
			if arcs[0].From != arcs[1].To || arcs[0].To != arcs[1].From {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// randomRound draws a round that is admissible by construction — disjoint
// vertex pairs, each idle, a one-way arc or an opposite pair — and then,
// half the time, adds up to two arbitrary arcs (self-loops, duplicates and
// chains included), which may or may not break admissibility.
func randomRound(rng *rand.Rand, n int) []graph.Arc {
	var round []graph.Arc
	perm := rng.Perm(n)
	for i := 0; i+1 < n; i += 2 {
		u, v := perm[i], perm[i+1]
		switch rng.Intn(4) {
		case 1:
			round = append(round, graph.Arc{From: u, To: v})
		case 2:
			round = append(round, graph.Arc{From: u, To: v}, graph.Arc{From: v, To: u})
		}
	}
	rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
	if rng.Intn(2) == 0 {
		for k := rng.Intn(3); k > 0; k-- {
			round = append(round, graph.Arc{From: rng.Intn(n), To: rng.Intn(n)})
		}
	}
	return round
}

// TestCompiledArbitraryArcSets is the accept/reject property of the
// compiler: on random arc sets, Compile succeeds iff every round passes
// admissibleRound, and a rejection names the first inadmissible round.
// Accepted programs, serial and sharded, must match the arc-slice oracle
// byte for byte. Both sides of the property must be exercised.
func TestCompiledArbitraryArcSets(t *testing.T) {
	rng := rand.New(rand.NewSource(1337))
	accepted, rejected := 0, 0
	for trial := 0; trial < 400; trial++ {
		n := 3 + rng.Intn(8)
		var rs [][]graph.Arc
		firstBad := -1
		for r := 0; r < 2+rng.Intn(6); r++ {
			round := randomRound(rng, n)
			if firstBad < 0 && !admissibleRound(round) {
				firstBad = r
			}
			rs = append(rs, round)
		}
		var p *gossip.Protocol
		if trial%2 == 0 {
			p = gossip.NewSystolic(rs, gossip.Directed)
		} else {
			p = gossip.NewFinite(rs, gossip.Directed)
		}
		prog, err := gossip.Compile(p, n, n)
		if firstBad >= 0 {
			if err == nil {
				t.Fatalf("trial %d: round %d %v is inadmissible but compiled", trial, firstBad, rs[firstBad])
			}
			if want := fmt.Sprintf("round %d ", firstBad); !strings.Contains(err.Error(), want) {
				t.Fatalf("trial %d: error %q does not name %q", trial, err, want)
			}
			rejected++
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: admissible rounds %v rejected: %v", trial, rs, err)
		}
		accepted++
		interp := gossip.NewState(n)
		compiled := gossip.NewState(n)
		sharded := gossip.NewState(n)
		sharded.SetShards(1 + rng.Intn(4))
		for r := 0; r < 3*(len(rs)+1); r++ {
			interp.Step(p.Round(r))
			compiled.StepProgram(prog, r)
			sharded.StepProgram(prog, r)
			want := interp.Export()
			if !bytes.Equal(compiled.Export(), want) {
				t.Fatalf("trial %d round %d: serial compiled diverged from the oracle", trial, r)
			}
			if !bytes.Equal(sharded.Export(), want) {
				t.Fatalf("trial %d round %d: sharded compiled diverged from the oracle", trial, r)
			}
			if compiled.TotalKnowledge() != interp.TotalKnowledge() ||
				sharded.TotalKnowledge() != interp.TotalKnowledge() {
				t.Fatalf("trial %d round %d: knowledge counters diverged", trial, r)
			}
		}
	}
	if accepted < 50 || rejected < 50 {
		t.Fatalf("property exercised %d accepted and %d rejected protocols, want ≥ 50 of each", accepted, rejected)
	}
}

// TestCompiledMatchesOnRealTopologies pins the differential on the paper's
// constructions across all three communication modes, sweeping worker
// counts through the sharded cuts.
func TestCompiledMatchesOnRealTopologies(t *testing.T) {
	cases := []struct {
		name  string
		g     *graph.Digraph
		proto func(*graph.Digraph) *gossip.Protocol
	}{
		{"debruijn/half", topology.NewDeBruijn(2, 6).G, protocols.PeriodicHalfDuplex},
		{"hypercube/full", topology.Hypercube(5), protocols.PeriodicFullDuplex},
		{"kautz-digraph/directed", topology.NewKautzDigraph(2, 5).G, protocols.RoundRobinDirected},
		{"ccc/full", topology.CCC(3), protocols.PeriodicFullDuplex},
		// 384 vertices: six words per block, so fused exchanges run the
		// four-word skip and a two-word tail.
		{"ccc6/full", topology.CCC(6), protocols.PeriodicFullDuplex},
		{"shuffle-exchange/half", topology.ShuffleExchange(4), protocols.PeriodicInterleavedHalfDuplex},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.proto(tc.g)
			if err := p.Validate(tc.g); err != nil {
				t.Fatal(err)
			}
			n := tc.g.N()
			prog, err := gossip.Compile(p, n, n)
			if err != nil {
				t.Fatal(err)
			}
			interp := gossip.NewState(n)
			var dumps [][]byte
			for r := 0; !interp.GossipComplete() && r < 10000; r++ {
				interp.Step(p.Round(r))
				dumps = append(dumps, interp.Export())
			}
			if !interp.GossipComplete() {
				t.Fatal("interpreted run did not complete")
			}
			for workers := 0; workers <= 5; workers++ {
				st := gossip.NewState(n)
				st.SetShards(workers)
				for r := range dumps {
					st.StepProgram(prog, r)
					if !bytes.Equal(st.Export(), dumps[r]) {
						t.Fatalf("workers=%d: compiled state diverged at round %d", workers, r+1)
					}
				}
				if !st.GossipComplete() {
					t.Fatalf("workers=%d: compiled run did not complete", workers)
				}
			}
		})
	}
}

// TestProgramCertificateMatchesInterpreted cross-checks the compiled
// completion certificate against a direct interpretation of the same
// forward propagation over arc slices.
func TestProgramCertificateMatchesInterpreted(t *testing.T) {
	interpretedCert := func(g *graph.Digraph, p *gossip.Protocol, tt int) bool {
		n := g.N()
		for x := 0; x < n; x++ {
			reached := make([]bool, n)
			reached[x] = true
			cnt := 1
			for r := 0; r < tt && cnt < n; r++ {
				var gained []int
				for _, a := range p.Round(r) {
					if reached[a.From] && !reached[a.To] {
						gained = append(gained, a.To)
					}
				}
				for _, v := range gained {
					reached[v] = true
				}
				cnt += len(gained)
			}
			if cnt < n {
				return false
			}
		}
		return true
	}

	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 15; trial++ {
		n := 4 + rng.Intn(6)
		g := randomSymmetricGraph(rng, n)
		p := randomMatchingProtocol(rng, g, 12, trial%2 == 0, gossip.HalfDuplex)
		for tt := 0; tt <= 14; tt += 2 {
			if got, want := gossip.CompletionCertificate(g, p, tt), interpretedCert(g, p, tt); got != want {
				t.Fatalf("trial %d t=%d: compiled certificate %v, interpreted %v", trial, tt, got, want)
			}
		}
	}
}

// TestCompiledStepZeroAlloc pins the compiled hot path at zero allocations
// in steady state — serial and sharded alike.
func TestCompiledStepZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	db := topology.NewDeBruijn(2, 8)
	p := protocols.PeriodicHalfDuplex(db.G)
	n := db.G.N()
	prog, err := gossip.Compile(p, n, n)
	if err != nil {
		t.Fatal(err)
	}

	st := gossip.NewState(n)
	r := 0
	if got := testing.AllocsPerRun(50, func() {
		st.StepProgram(prog, r)
		r++
	}); got != 0 {
		t.Errorf("serial compiled Step allocates %v objects per round, want 0", got)
	}

	sharded := gossip.NewState(n)
	sharded.SetShards(4)
	r = 0
	if got := testing.AllocsPerRun(50, func() {
		sharded.StepProgram(prog, r)
		r++
	}); got != 0 {
		t.Errorf("sharded compiled Step allocates %v objects per round, want 0", got)
	}

	bprog, err := gossip.Compile(p, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	fr := gossip.NewFrontierState(n, 0)
	r = 0
	if got := testing.AllocsPerRun(50, func() {
		fr.StepProgram(bprog, r)
		r++
	}); got != 0 {
		t.Errorf("compiled frontier Step allocates %v objects per round, want 0", got)
	}
}

// TestCompileRejects: arcs outside the processor range, degenerate shapes
// and every round that is neither a matching nor a set of isolated opposite
// pairs must fail compilation with an error naming the round and the arc,
// not a panic or a wrong result downstream.
func TestCompileRejects(t *testing.T) {
	p := gossip.NewFinite([][]graph.Arc{{{From: 0, To: 7}}}, gossip.Directed)
	if _, err := gossip.Compile(p, 4, 4); err == nil {
		t.Error("out-of-range arc compiled")
	}
	if _, err := gossip.Compile(p, -1, 1); err == nil {
		t.Error("negative processor count compiled")
	}
	if _, err := gossip.Compile(p, 8, 0); err == nil {
		t.Error("zero item width compiled")
	}
	shapes := []struct {
		name  string
		round []graph.Arc
		arc   string // the arc the error must name
	}{
		{"shared sender", []graph.Arc{{From: 0, To: 1}, {From: 0, To: 2}}, "(0,2)"},
		{"duplicate destination", []graph.Arc{{From: 0, To: 2}, {From: 1, To: 2}}, "(1,2)"},
		{"chain u→v→w", []graph.Arc{{From: 0, To: 1}, {From: 1, To: 2}}, "(1,2)"},
		{"opposite pair plus a third arc", []graph.Arc{{From: 0, To: 1}, {From: 1, To: 0}, {From: 2, To: 1}}, "(2,1)"},
		{"duplicate arc", []graph.Arc{{From: 0, To: 1}, {From: 0, To: 1}}, "(0,1)"},
		{"self-loop", []graph.Arc{{From: 2, To: 2}}, "(2,2)"},
	}
	for _, tc := range shapes {
		// The bad round comes second, after an admissible one, in every mode.
		for _, mode := range []gossip.Mode{gossip.Directed, gossip.HalfDuplex, gossip.FullDuplex} {
			bad := gossip.NewSystolic([][]graph.Arc{{{From: 3, To: 4}}, tc.round}, mode)
			_, err := gossip.Compile(bad, 5, 5)
			if err == nil {
				t.Errorf("%s (%v): compiled", tc.name, mode)
				continue
			}
			if msg := err.Error(); !strings.Contains(msg, "round 1 ") || !strings.Contains(msg, tc.arc) {
				t.Errorf("%s (%v): error %q does not name round 1 and arc %s", tc.name, mode, msg, tc.arc)
			}
		}
	}
	pair := gossip.NewSystolic([][]graph.Arc{{{From: 1, To: 0}, {From: 2, To: 3}, {From: 0, To: 1}}}, gossip.Directed)
	if pr, err := gossip.Compile(pair, 4, 4); err != nil || pr.NumArcs() != 3 {
		t.Errorf("an opposite pair beside a one-way arc must compile: %v", err)
	}
	ok := gossip.NewSystolic([][]graph.Arc{{{From: 0, To: 1}}}, gossip.Directed)
	pr, err := gossip.Compile(ok, 2, 2)
	if err != nil {
		t.Fatalf("valid protocol failed to compile: %v", err)
	}
	if pr.Len() != 1 || !pr.Systolic() || pr.NumArcs() != 1 || pr.N() != 2 || pr.Items() != 2 {
		t.Errorf("program metadata mismatch: %+v", pr)
	}
	if pr.Mode() != gossip.Directed || pr.Period() != 1 {
		t.Errorf("program mode/period mismatch")
	}
}
