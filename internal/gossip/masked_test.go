// Differential coverage for masked (fault-injected) execution: with an
// always-true filter StepProgramMasked must be byte-identical to
// StepProgram, and with an arbitrary deterministic filter it must be
// byte-identical to interpreting the filtered arc slices with Step — on
// both gossip- and broadcast-shaped states. Reset must restore the exact
// initial state.
package gossip_test

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/gossip"
	"repro/internal/graph"
	"repro/internal/protocols"
	"repro/internal/topology"
)

// maskedWorkloads cover the compiler's structural cases: fused full-duplex
// exchanges (hypercube), unfused half-duplex matchings (de Bruijn), and
// the one-way matchings of a directed round-robin on a non-symmetric
// digraph.
func maskedWorkloads() []struct {
	name string
	g    *graph.Digraph
	p    *gossip.Protocol
} {
	hc := topology.Hypercube(4)
	db := topology.NewDeBruijn(2, 4)
	dd := topology.NewDeBruijnDigraph(2, 4)
	return []struct {
		name string
		g    *graph.Digraph
		p    *gossip.Protocol
	}{
		{"hypercube/exchange", hc, protocols.HypercubeExchange(4)},
		{"debruijn/periodic-half", db.G, protocols.PeriodicHalfDuplex(db.G)},
		{"debruijn-digraph/round-robin", dd.G, protocols.RoundRobinDirected(dd.G)},
	}
}

// TestMaskedKeepAllIdentity: an always-true filter reproduces the unmasked
// compiled execution exactly, round by round.
func TestMaskedKeepAllIdentity(t *testing.T) {
	keepAll := func(from, to int32) bool { return true }
	for _, w := range maskedWorkloads() {
		t.Run(w.name, func(t *testing.T) {
			n := w.g.N()
			pr, err := gossip.Compile(w.p, n, n)
			if err != nil {
				t.Fatal(err)
			}
			ref := gossip.NewState(n)
			got := gossip.NewState(n)
			for r := 0; r < 64 && !ref.GossipComplete(); r++ {
				ref.StepProgram(pr, r)
				got.StepProgramMasked(pr, r, keepAll)
				if !bytes.Equal(ref.Export(), got.Export()) {
					t.Fatalf("round %d: masked keep-all state diverged", r)
				}
				if ref.TotalKnowledge() != got.TotalKnowledge() {
					t.Fatalf("round %d: knowledge %d != %d", r, got.TotalKnowledge(), ref.TotalKnowledge())
				}
			}
			if !ref.GossipComplete() || !got.GossipComplete() {
				t.Fatal("workload did not complete")
			}
		})
	}
}

// TestMaskedDifferentialRandomFilters: for random deterministic filters,
// the masked compiled execution equals interpreting the filtered arc
// slices with Step — the semantic contract faults are injected under.
func TestMaskedDifferentialRandomFilters(t *testing.T) {
	for _, w := range maskedWorkloads() {
		t.Run(w.name, func(t *testing.T) {
			n := w.g.N()
			pr, err := gossip.Compile(w.p, n, n)
			if err != nil {
				t.Fatal(err)
			}
			for seed := int64(1); seed <= 5; seed++ {
				// drop[r] records, per round, which ordered arcs are dropped;
				// the same decisions drive both executions.
				rng := rand.New(rand.NewSource(seed))
				drop := make([]map[graph.Arc]bool, 48)
				for r := range drop {
					drop[r] = make(map[graph.Arc]bool)
					for _, a := range w.p.Round(r) {
						if rng.Intn(3) == 0 {
							drop[r][a] = true
						}
					}
				}
				ref := gossip.NewState(n)
				got := gossip.NewState(n)
				var filtered []graph.Arc
				for r := 0; r < len(drop); r++ {
					filtered = filtered[:0]
					for _, a := range w.p.Round(r) {
						if !drop[r][a] {
							filtered = append(filtered, a)
						}
					}
					ref.Step(filtered)
					round := r
					got.StepProgramMasked(pr, r, func(from, to int32) bool {
						return !drop[round][graph.Arc{From: int(from), To: int(to)}]
					})
					if !bytes.Equal(ref.Export(), got.Export()) {
						t.Fatalf("seed %d round %d: masked state diverged from filtered interpretation", seed, r)
					}
				}
				if ref.TotalKnowledge() != got.TotalKnowledge() {
					t.Fatalf("seed %d: knowledge %d != %d", seed, got.TotalKnowledge(), ref.TotalKnowledge())
				}
			}
		})
	}
}

// TestFrontierMaskedDifferential: the masked step of a broadcast-shaped
// state equals the filtered interpreted frontier step from every source.
func TestFrontierMaskedDifferential(t *testing.T) {
	for _, w := range maskedWorkloads() {
		t.Run(w.name, func(t *testing.T) {
			n := w.g.N()
			pr, err := gossip.Compile(w.p, n, 1)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(7))
			for source := 0; source < n; source += 1 + n/5 {
				drop := make([]map[graph.Arc]bool, 48)
				for r := range drop {
					drop[r] = make(map[graph.Arc]bool)
					for _, a := range w.p.Round(r) {
						if rng.Intn(3) == 0 {
							drop[r][a] = true
						}
					}
				}
				ref := gossip.NewFrontierState(n, source)
				got := gossip.NewBroadcastState(n, source)
				var filtered []graph.Arc
				for r := 0; r < len(drop); r++ {
					filtered = filtered[:0]
					for _, a := range w.p.Round(r) {
						if !drop[r][a] {
							filtered = append(filtered, a)
						}
					}
					g1 := ref.Step(filtered)
					round := r
					before := got.TotalKnowledge()
					got.StepProgramMasked(pr, r, func(from, to int32) bool {
						return !drop[round][graph.Arc{From: int(from), To: int(to)}]
					})
					if g2 := got.TotalKnowledge() - before; g1 != g2 {
						t.Fatalf("source %d round %d: broadcast state gained %d, want %d", source, r, g2, g1)
					}
					for v := 0; v < n; v++ {
						if got.Knows(v, 0) != ref.Informed(v) {
							t.Fatalf("source %d round %d: vertex %d informed %v, want %v",
								source, r, v, got.Knows(v, 0), ref.Informed(v))
						}
					}
				}
			}
		})
	}
}

// TestStateReset: Reset restores the exact initial gossip configuration
// after an arbitrary run, and a reset state replays a run byte-identically.
func TestStateReset(t *testing.T) {
	db := topology.NewDeBruijn(2, 4)
	p := protocols.PeriodicHalfDuplex(db.G)
	n := db.G.N()
	pr, err := gossip.Compile(p, n, n)
	if err != nil {
		t.Fatal(err)
	}
	fresh := gossip.NewState(n)
	st := gossip.NewState(n)
	for r := 0; !st.GossipComplete(); r++ {
		st.StepProgram(pr, r)
	}
	st.Reset()
	if !bytes.Equal(st.Export(), fresh.Export()) {
		t.Fatal("Reset state differs from a fresh NewState")
	}
	if st.TotalKnowledge() != n {
		t.Fatalf("Reset knowledge = %d, want %d", st.TotalKnowledge(), n)
	}
	var runA, runB []byte
	for r := 0; !st.GossipComplete(); r++ {
		st.StepProgram(pr, r)
	}
	runA = st.Export()
	st.Reset()
	for r := 0; !st.GossipComplete(); r++ {
		st.StepProgram(pr, r)
	}
	runB = st.Export()
	if !bytes.Equal(runA, runB) {
		t.Fatal("replay after Reset diverged")
	}
}
