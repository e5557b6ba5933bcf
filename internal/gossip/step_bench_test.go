// Hot-path benchmarks and invariants for the flat gossip core: the
// arc-slice oracle Step must not allocate in steady state, and
// the one-bit-per-vertex frontier backend must agree with the full bitset
// state on broadcasts. The benchmarks live in an
// external test package so they can drive the core through real protocols
// (importing repro/internal/protocols from package gossip would cycle).
package gossip_test

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/gossip"
	"repro/internal/protocols"
	"repro/internal/topology"
)

// BenchmarkStep measures the arc-slice oracle on the 4096-vertex de Bruijn
// graph DB(2,12) and proves it allocates nothing: its beginning-of-round
// snapshot reuses test-only scratch, so it needs no per-round buffers.
func BenchmarkStep(b *testing.B) {
	db := topology.NewDeBruijn(2, 12)
	p := protocols.PeriodicHalfDuplex(db.G)
	st := gossip.NewState(db.G.N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Step(p.Round(i))
	}
}

// BenchmarkCompiledStep measures the compiled hot path on the 4096-vertex
// hypercube H(12) running the dimension-exchange schedule: the schedule is
// lowered once into a Program (precomputed word offsets; here every round
// is fully fused into 2048 exchange ops) and StepProgram executes the IR
// with zero allocations. Compare
// with BenchmarkUncompiledStep, the arc-slice oracle on the identical
// workload, for the compile-once win; BENCH.json bounds that ratio.
func BenchmarkCompiledStep(b *testing.B) {
	hc := topology.Hypercube(12)
	p := protocols.HypercubeExchange(12)
	n := hc.N()
	prog, err := gossip.Compile(p, n, n)
	if err != nil {
		b.Fatal(err)
	}
	st := gossip.NewState(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.StepProgram(prog, i)
	}
}

// BenchmarkUncompiledStep is the slice-interpreted baseline for
// BenchmarkCompiledStep: the same hypercube d=12 exchange schedule driven
// through the State.Step oracle on raw []graph.Arc rounds.
func BenchmarkUncompiledStep(b *testing.B) {
	hc := topology.Hypercube(12)
	p := protocols.HypercubeExchange(12)
	st := gossip.NewState(hc.N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Step(p.Round(i))
	}
}

// BenchmarkCompiledStepSharded is BenchmarkCompiledStep with each round cut
// into GOMAXPROCS shares: the caller and the worker runtime's free helpers
// claim the shares, each merging one contiguous cut of the round's ops,
// behind a single barrier.
func BenchmarkCompiledStepSharded(b *testing.B) {
	hc := topology.Hypercube(12)
	p := protocols.HypercubeExchange(12)
	n := hc.N()
	prog, err := gossip.Compile(p, n, n)
	if err != nil {
		b.Fatal(err)
	}
	st := gossip.NewState(n)
	st.SetShards(runtime.GOMAXPROCS(0))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.StepProgram(prog, i)
	}
}

// BenchmarkProgramCompile measures the one-off lowering cost itself —
// checking, fusing and packing the hypercube d=12 schedule — the price paid
// once per session (or once per program-cache fill) to make every
// subsequent round cheaper.
func BenchmarkProgramCompile(b *testing.B) {
	hc := topology.Hypercube(12)
	p := protocols.HypercubeExchange(12)
	n := hc.N()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gossip.Compile(p, n, n); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompletionCertificate measures the independent certificate
// checker on DB(2,8) with its hoisted, stamp-reset buffers.
func BenchmarkCompletionCertificate(b *testing.B) {
	db := topology.NewDeBruijn(2, 8)
	p := protocols.PeriodicHalfDuplex(db.G)
	res, err := gossip.Simulate(db.G, p, 100000)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !gossip.CompletionCertificate(db.G, p, res.Rounds) {
			b.Fatal("certificate rejected a completed run")
		}
	}
}

// BenchmarkFrontierStep measures the FrontierState.Step oracle (one bit
// per vertex) on DB(2,12).
func BenchmarkFrontierStep(b *testing.B) {
	db := topology.NewDeBruijn(2, 12)
	p := protocols.BroadcastSchedule(db.G, 0)
	st := gossip.NewFrontierState(db.G.N(), 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Step(p.Round(i % p.Len()))
	}
}

// TestStepZeroAlloc: a steady-state Step of the arc-slice oracle performs
// zero allocations, so the benchmarks that drive it measure only stepping.
func TestStepZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	db := topology.NewDeBruijn(2, 8)
	p := protocols.PeriodicHalfDuplex(db.G)

	st := gossip.NewState(db.G.N())
	r := 0
	if got := testing.AllocsPerRun(50, func() {
		st.Step(p.Round(r))
		r++
	}); got != 0 {
		t.Errorf("serial Step allocates %v objects per round, want 0", got)
	}
}

// TestFrontierMatchesBroadcastState: the packed frontier backend agrees
// with the full State broadcast representation round by round.
func TestFrontierMatchesBroadcastState(t *testing.T) {
	db := topology.NewDeBruijn(2, 6)
	n := db.G.N()
	p := protocols.BroadcastSchedule(db.G, 3)
	full := gossip.NewBroadcastState(n, 3)
	packed := gossip.NewFrontierState(n, 3)
	for r := 0; r < 10*p.Len() && !packed.Complete(); r++ {
		round := p.Round(r % p.Len())
		full.Step(round)
		gained := packed.Step(round)
		if gained < 0 {
			t.Fatalf("round %d: negative frontier growth", r+1)
		}
		for v := 0; v < n; v++ {
			if full.Knows(v, 0) != packed.Informed(v) {
				t.Fatalf("round %d: vertex %d informed disagreement (full %v, packed %v)",
					r+1, v, full.Knows(v, 0), packed.Informed(v))
			}
		}
		if full.TotalKnowledge() != packed.InformedCount() {
			t.Fatalf("round %d: informed count disagreement", r+1)
		}
		if full.BroadcastComplete() != packed.Complete() {
			t.Fatalf("round %d: completion disagreement", r+1)
		}
	}
	if !packed.Complete() {
		t.Fatal("broadcast schedule never completed")
	}
}

// TestStateExportImport: a snapshot round-trips exactly and corrupt
// payloads are rejected.
func TestStateExportImport(t *testing.T) {
	db := topology.NewDeBruijn(2, 5)
	p := protocols.PeriodicHalfDuplex(db.G)
	st := gossip.NewState(db.G.N())
	for r := 0; r < 7; r++ {
		st.Step(p.Round(r))
	}
	dump := st.Export()

	back := gossip.NewState(db.G.N())
	if err := back.Import(dump); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Export(), dump) {
		t.Fatal("export/import round trip changed the state")
	}
	if back.TotalKnowledge() != st.TotalKnowledge() {
		t.Fatalf("imported knowledge %d, want %d", back.TotalKnowledge(), st.TotalKnowledge())
	}
	for r := 7; !st.GossipComplete(); r++ {
		st.Step(p.Round(r))
		back.Step(p.Round(r))
	}
	if !back.GossipComplete() {
		t.Fatal("imported state did not resume to completion in lockstep")
	}

	if err := back.Import(dump[:len(dump)-1]); err == nil {
		t.Error("short payload was accepted")
	}
	bad := append([]byte(nil), dump...)
	bad[len(bad)-1] = 0xFF // bits beyond item n-1 in the last word
	if db.G.N()%64 != 0 {
		if err := back.Import(bad); err == nil {
			t.Error("payload with out-of-range bits was accepted")
		}
	}
}
