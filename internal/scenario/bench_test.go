package scenario_test

import (
	"testing"

	"repro/internal/gossip"
	"repro/internal/protocols"
	"repro/internal/scenario"
	"repro/internal/topology"
)

// BenchmarkScenarioStep measures an inactive (loss=0, no faults) scenario
// step on the exact BenchmarkCompiledStep workload — hypercube H(12)
// under the dimension-exchange schedule. The contract BENCH.json pins:
// 0 allocs/op and within noise of BenchmarkCompiledStep, because the
// inactive trial delegates straight to the unmasked StepProgram.
func BenchmarkScenarioStep(b *testing.B) {
	hc := topology.Hypercube(12)
	p := protocols.HypercubeExchange(12)
	n := hc.N()
	prog, err := gossip.Compile(p, n, n)
	if err != nil {
		b.Fatal(err)
	}
	c, err := scenario.Compile(nil, n)
	if err != nil {
		b.Fatal(err)
	}
	st := gossip.NewState(n)
	tr := c.Trial(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Step(st, prog, i)
	}
}

// BenchmarkScenarioStepLossy is the same workload through the masked path
// with 5% loss — the price of fault injection when it is actually on:
// one filter call (plus one PRNG draw) per scheduled arc.
func BenchmarkScenarioStepLossy(b *testing.B) {
	hc := topology.Hypercube(12)
	p := protocols.HypercubeExchange(12)
	n := hc.N()
	prog, err := gossip.Compile(p, n, n)
	if err != nil {
		b.Fatal(err)
	}
	c, err := scenario.Compile(&scenario.Spec{Loss: 0.05, Seed: 1}, n)
	if err != nil {
		b.Fatal(err)
	}
	st := gossip.NewState(n)
	tr := c.Trial(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Step(st, prog, i)
	}
}
