package gossip_test

import (
	"testing"

	"repro/internal/gossip"
	"repro/internal/topology"
)

// The generator-program-vs-CSR step pair on hypercube d=12: the same
// dimension-order exchange schedule, one executing the lowered CSR Program
// (fused arc pairs in memory) and one recomputing each round's receive
// words from the vertex ids. Each reports its resident footprint as
// bytes/node: the CSR Program carries ~8 bytes per fused pair per round on
// top of the frontier bits, the generator's scratch is one fixed chunk of
// receive words. The BENCH_PR10 gate holds the generator step within the
// accepted ratio of the CSR step (see .github/workflows/ci.yml).

func genProgramBenchSchedule() *gossip.GenProgram {
	sched := topology.NewSchedule(topology.NewHypercubeClasses(12))
	return gossip.CompileGen(sched.FullDuplex(), gossip.FullDuplex)
}

// BenchmarkGenProgramStep measures the generator-compiled frontier step:
// hypercube d=12, 64 destinations per receive word, zero allocations.
func BenchmarkGenProgramStep(b *testing.B) {
	gen := genProgramBenchSchedule()
	n := gen.N()
	run := gossip.NewGenRun(gen)
	fr := gossip.NewFrontierState(n, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fr.StepGenProgram(run, i)
	}
	// After ResetTimer, which deletes user metrics. The frontier bitset
	// plus one chunk of 64 receive words.
	b.ReportMetric(float64(n/8+8*64)/float64(n), "bytes/node")
}

// BenchmarkGenProgramStepCSR is the materialized reference: the identical
// schedule lowered to a CSR Program and executed by the compiled frontier
// step.
func BenchmarkGenProgramStepCSR(b *testing.B) {
	gen := genProgramBenchSchedule()
	n := gen.N()
	prog, err := gossip.Compile(gen.Materialize(), n, 1)
	if err != nil {
		b.Fatal(err)
	}
	fr := gossip.NewFrontierState(n, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fr.StepProgram(prog, i)
	}
	// One fused exchange (8 bytes) per vertex per round, period d rounds,
	// on top of the two frontier bitsets.
	b.ReportMetric(float64(2*(n/8)+8*(n/2)*12)/float64(n), "bytes/node")
}

// BenchmarkGenProgramStepFamilies steps the periodic full-duplex schedules
// of the families without word arithmetic, whose receive words are packed
// from partner ids one vertex at a time: CCC(9), BF(2,12), C_65536 and the
// 256×256 torus, about 4.6k, 53k, 66k and 66k vertices.
func BenchmarkGenProgramStepFamilies(b *testing.B) {
	for _, tc := range []struct {
		name string
		cls  topology.ExchangeClasses
	}{
		{"ccc-9", topology.NewCCCClasses(9)},
		{"butterfly-2x12", topology.NewButterflyClasses(2, 12)},
		{"cycle-65536", topology.NewCycleClasses(65536)},
		{"torus-256x256", topology.NewTorusClasses(256, 256)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			gen := gossip.CompileGen(topology.NewSchedule(tc.cls).FullDuplex(), gossip.FullDuplex)
			run := gossip.NewGenRun(gen)
			fr := gossip.NewFrontierState(gen.N(), 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fr.StepGenProgram(run, i)
			}
		})
	}
}
