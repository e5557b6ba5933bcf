package scenario_test

import (
	"bytes"
	"testing"

	"repro/internal/gossip"
	"repro/internal/graph"
	"repro/internal/protocols"
	"repro/internal/scenario"
	"repro/internal/topology"
)

// testbed compiles the DB(2,5) periodic half-duplex workload used across
// the package tests: 32 vertices, a mix of fused and unfused rounds.
func testbed(t testing.TB) (n int, p *gossip.Protocol, pr *gossip.Program) {
	db := topology.NewDeBruijn(2, 5)
	p = protocols.PeriodicHalfDuplex(db.G)
	n = db.G.N()
	pr, err := gossip.Compile(p, n, n)
	if err != nil {
		t.Fatal(err)
	}
	return n, p, pr
}

// run executes budget rounds of trial i and returns the final state dump
// and the completion round (-1 if the budget expired first).
func run(n int, pr *gossip.Program, c *scenario.Compiled, trial, budget int) ([]byte, int) {
	st := gossip.NewState(n)
	tr := c.Trial(trial)
	done := -1
	for r := 0; r < budget; r++ {
		tr.Step(st, pr, r)
		if done < 0 && st.GossipComplete() {
			done = r + 1
			break
		}
	}
	return st.Export(), done
}

// TestInactiveMatchesDeterministic: a scenario with no faults executes
// byte-identically to the plain compiled path (the zero-cost contract).
func TestInactiveMatchesDeterministic(t *testing.T) {
	n, _, pr := testbed(t)
	for _, sp := range []*scenario.Spec{nil, {}, {Seed: 42}} {
		c, err := scenario.Compile(sp, n)
		if err != nil {
			t.Fatal(err)
		}
		if c.Active() {
			t.Fatalf("spec %+v compiled active", sp)
		}
		ref := gossip.NewState(n)
		st := gossip.NewState(n)
		tr := c.Trial(0)
		for r := 0; r < 32; r++ {
			ref.StepProgram(pr, r)
			tr.Step(st, pr, r)
			if !bytes.Equal(ref.Export(), st.Export()) {
				t.Fatalf("inactive scenario diverged at round %d", r)
			}
		}
	}
}

// TestTrialDeterminism: identical (spec, trial) pairs replay identically —
// including through Reset — while different trials and different seeds
// diverge on this workload.
func TestTrialDeterminism(t *testing.T) {
	n, _, pr := testbed(t)
	c, err := scenario.Compile(&scenario.Spec{Loss: 0.3, Seed: 7}, n)
	if err != nil {
		t.Fatal(err)
	}
	a1, d1 := run(n, pr, c, 3, 64)
	a2, d2 := run(n, pr, c, 3, 64)
	if !bytes.Equal(a1, a2) || d1 != d2 {
		t.Fatal("identical (seed, trial) did not replay identically")
	}

	st := gossip.NewState(n)
	tr := c.Trial(9)
	for r := 0; r < 16; r++ {
		tr.Step(st, pr, r)
	}
	first := st.Export()
	tr.Reset(9)
	st2 := gossip.NewState(n)
	for r := 0; r < 16; r++ {
		tr.Step(st2, pr, r)
	}
	if !bytes.Equal(first, st2.Export()) {
		t.Fatal("Reset trial did not replay identically")
	}

	// A completed state is all-ones whatever path led there, so divergence
	// is checked on early-round prefixes, not final dumps.
	p1, _ := run(n, pr, c, 3, 5)
	p2, _ := run(n, pr, c, 4, 5)
	if bytes.Equal(p1, p2) {
		t.Fatal("distinct trials produced identical executions under 30% loss")
	}
	c2, err := scenario.Compile(&scenario.Spec{Loss: 0.3, Seed: 8}, n)
	if err != nil {
		t.Fatal(err)
	}
	s1, _ := run(n, pr, c2, 3, 5)
	if bytes.Equal(p1, s1) {
		t.Fatal("distinct seeds produced identical executions under 30% loss")
	}
}

// TestTotalLossFreezesState: loss=1 delivers nothing — every vertex keeps
// exactly its own item forever.
func TestTotalLossFreezesState(t *testing.T) {
	n, _, pr := testbed(t)
	c, err := scenario.Compile(&scenario.Spec{Loss: 1}, n)
	if err != nil {
		t.Fatal(err)
	}
	st := gossip.NewState(n)
	tr := c.Trial(0)
	for r := 0; r < 20; r++ {
		tr.Step(st, pr, r)
	}
	if st.TotalKnowledge() != n {
		t.Fatalf("loss=1 execution gained knowledge: %d > %d", st.TotalKnowledge(), n)
	}
}

// TestCrashWindowSemantics: a crashed node neither sends nor receives
// inside its window, rejoins warm, and the run still completes afterwards.
func TestCrashWindowSemantics(t *testing.T) {
	n, _, pr := testbed(t)
	const victim = 5
	c, err := scenario.Compile(&scenario.Spec{
		Crashes: []scenario.Window{{Node: victim, From: 0, To: 8}},
	}, n)
	if err != nil {
		t.Fatal(err)
	}
	st := gossip.NewState(n)
	tr := c.Trial(0)
	for r := 0; r < 8; r++ {
		tr.Step(st, pr, r)
		if st.Count(victim) != 1 {
			t.Fatalf("round %d: crashed node received (count %d)", r, st.Count(victim))
		}
		for v := 0; v < n; v++ {
			if v != victim && st.Knows(v, victim) {
				t.Fatalf("round %d: vertex %d learned the crashed node's item", r, v)
			}
		}
	}
	done := false
	for r := 8; r < 200; r++ {
		tr.Step(st, pr, r)
		if st.GossipComplete() {
			done = true
			break
		}
	}
	if !done {
		t.Fatal("gossip did not complete after the crash window closed")
	}
}

// TestDeletedArcsNeverDeliver: deleting every arc into one vertex starves
// it; every other transfer is unaffected.
func TestDeletedArcsNeverDeliver(t *testing.T) {
	db := topology.NewDeBruijn(2, 5)
	p := protocols.PeriodicHalfDuplex(db.G)
	n := db.G.N()
	pr, err := gossip.Compile(p, n, n)
	if err != nil {
		t.Fatal(err)
	}
	const starved = 11
	var del []graph.Arc
	for _, a := range db.G.Arcs() {
		if a.To == starved {
			del = append(del, a)
		}
	}
	c, err := scenario.Compile(&scenario.Spec{Deleted: del}, n)
	if err != nil {
		t.Fatal(err)
	}
	st := gossip.NewState(n)
	tr := c.Trial(0)
	for r := 0; r < 100; r++ {
		tr.Step(st, pr, r)
	}
	if st.Count(starved) != 1 {
		t.Fatalf("starved vertex received %d items over deleted arcs", st.Count(starved))
	}
	for v := 0; v < n; v++ {
		if v != starved && st.Count(v) != n {
			t.Fatalf("vertex %d did not saturate: %d/%d", v, st.Count(v), n)
		}
	}
}

// TestArcLossOverride: a per-arc override of 1 on a cut mirrors deletion,
// even when the global loss is 0.
func TestArcLossOverride(t *testing.T) {
	db := topology.NewDeBruijn(2, 5)
	n := db.G.N()
	p := protocols.PeriodicHalfDuplex(db.G)
	pr, err := gossip.Compile(p, n, n)
	if err != nil {
		t.Fatal(err)
	}
	const starved = 3
	var overrides []scenario.ArcLoss
	for _, a := range db.G.Arcs() {
		if a.To == starved {
			overrides = append(overrides, scenario.ArcLoss{From: a.From, To: a.To, Loss: 1})
		}
	}
	c, err := scenario.Compile(&scenario.Spec{ArcLoss: overrides}, n)
	if err != nil {
		t.Fatal(err)
	}
	st := gossip.NewState(n)
	tr := c.Trial(0)
	for r := 0; r < 100; r++ {
		tr.Step(st, pr, r)
	}
	if st.Count(starved) != 1 {
		t.Fatalf("vertex behind loss-1 arcs received %d items", st.Count(starved))
	}
}

// TestBroadcastTrialMatchesGossipTrial: under identical faults a
// broadcast-shaped state and a gossip state agree on who knows item 0.
// Programs compiled from one protocol list their ops in the same order
// whatever the item width, so the filter sees the same consultations; the
// gossip run replays the stream through the same trial reset in between.
func TestBroadcastTrialMatchesGossipTrial(t *testing.T) {
	db := topology.NewDeBruijn(2, 5)
	n := db.G.N()
	p := protocols.BroadcastSchedule(db.G, 0)
	prB, err := gossip.Compile(p, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	prG, err := gossip.Compile(p, n, n)
	if err != nil {
		t.Fatal(err)
	}
	c, err := scenario.Compile(&scenario.Spec{
		Loss: 0.2,
		Seed: 11,
		Crashes: []scenario.Window{
			{Node: 7, From: 2, To: 6},
		},
	}, n)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 40
	tr := c.Trial(1)
	bc := gossip.NewBroadcastState(n, 0)
	var informed [rounds][]bool
	for r := 0; r < rounds; r++ {
		tr.Step(bc, prB, r)
		informed[r] = make([]bool, n)
		for v := range informed[r] {
			informed[r][v] = bc.Knows(v, 0)
		}
	}
	if bc.TotalKnowledge() < 2 {
		t.Fatal("lossy broadcast informed no vertex; the comparison is vacuous")
	}
	tr.Reset(1)
	gs := gossip.NewState(n)
	for r := 0; r < rounds; r++ {
		tr.Step(gs, prG, r)
		for v := 0; v < n; v++ {
			if gs.Knows(v, 0) != informed[r][v] {
				t.Fatalf("round %d vertex %d: gossip state knows item 0 = %v, broadcast state %v",
					r, v, gs.Knows(v, 0), informed[r][v])
			}
		}
	}
}

// TestCompileValidation: malformed specs are rejected with errors, not
// silently clamped.
func TestCompileValidation(t *testing.T) {
	bad := []*scenario.Spec{
		{Loss: -0.1},
		{Loss: 1.5},
		{ArcLoss: []scenario.ArcLoss{{From: 0, To: 99, Loss: 0.5}}},
		{ArcLoss: []scenario.ArcLoss{{From: 0, To: 1, Loss: 2}}},
		{Crashes: []scenario.Window{{Node: -1, From: 0, To: 5}}},
		{Crashes: []scenario.Window{{Node: 0, From: 5, To: 2}}},
		{Crashes: []scenario.Window{{Node: 0, From: -3, To: 2}}},
		{Deleted: []graph.Arc{{From: 32, To: 0}}},
	}
	for i, sp := range bad {
		if _, err := scenario.Compile(sp, 32); err == nil {
			t.Errorf("spec %d (%+v) was accepted", i, sp)
		}
	}
	if _, err := scenario.Compile(&scenario.Spec{Loss: 0.5}, 0); err == nil {
		t.Error("zero-vertex compile was accepted")
	}
	// Empty crash windows are dropped, not errors: the spec stays inactive.
	c, err := scenario.Compile(&scenario.Spec{Crashes: []scenario.Window{{Node: 1, From: 4, To: 4}}}, 32)
	if err != nil {
		t.Fatal(err)
	}
	if c.Active() {
		t.Error("empty crash window left the scenario active")
	}
}

// TestScenarioStepZeroAlloc pins the hot-path contract: steady-state
// scenario steps allocate nothing — inactive, crash-only, and lossy alike.
func TestScenarioStepZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	n, _, pr := testbed(t)
	cases := []struct {
		name string
		sp   *scenario.Spec
	}{
		{"inactive", nil},
		{"crash-only", &scenario.Spec{Crashes: []scenario.Window{{Node: 1, From: 0, To: 1 << 30}}}},
		{"lossy", &scenario.Spec{Loss: 0.2, Seed: 3}},
	}
	for _, tc := range cases {
		c, err := scenario.Compile(tc.sp, n)
		if err != nil {
			t.Fatal(err)
		}
		st := gossip.NewState(n)
		tr := c.Trial(0)
		r := 0
		if got := testing.AllocsPerRun(50, func() {
			tr.Step(st, pr, r)
			r++
		}); got != 0 {
			t.Errorf("%s: scenario step allocates %v objects per round, want 0", tc.name, got)
		}
	}
}
