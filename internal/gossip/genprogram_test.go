package gossip

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/graph"
	"repro/internal/topology"
)

// genProgCase is one generator-compiled schedule plus the mode it runs
// under.
type genProgCase struct {
	name string
	rs   graph.RoundSource
	mode Mode
}

func genProgCases() []genProgCase {
	var cases []genProgCase
	add := func(kind string, s *topology.Schedule) {
		cases = append(cases,
			genProgCase{kind + "-full", s.FullDuplex(), FullDuplex},
			genProgCase{kind + "-half", s.HalfDuplex(), HalfDuplex},
			genProgCase{kind + "-interleaved", s.Interleaved(), HalfDuplex},
		)
	}
	add("hypercube-D4", topology.NewSchedule(topology.NewHypercubeClasses(4)))
	add("cycle-9", topology.NewSchedule(topology.NewCycleClasses(9)))
	add("cycle-8", topology.NewSchedule(topology.NewCycleClasses(8)))
	add("torus-3x4", topology.NewSchedule(topology.NewTorusClasses(3, 4)))
	add("ccc-3", topology.NewSchedule(topology.NewCCCClasses(3)))
	add("butterfly-2x2", topology.NewSchedule(topology.NewButterflyClasses(2, 2)))
	cases = append(cases, genProgCase{"cycle2-10", topology.NewCycleTwoPhase(10), Directed})
	return cases
}

// wordCases widens genProgCases to the sizes where the word form has edge
// cases: sub-word hypercubes, cycles around the word size, tori whose n is
// not a multiple of 64, the adapted families past one word, and every
// family past one step chunk (graph.GenChunkVerts destinations), where the
// in-place step reads frontier words an earlier chunk already updated and
// hypercube dimensions >= 12 pair words of different chunks.
func wordCases() []genProgCase {
	var cases []genProgCase
	add := func(kind string, s *topology.Schedule) {
		cases = append(cases,
			genProgCase{kind + "-full", s.FullDuplex(), FullDuplex},
			genProgCase{kind + "-half", s.HalfDuplex(), HalfDuplex},
			genProgCase{kind + "-interleaved", s.Interleaved(), HalfDuplex},
		)
	}
	for D := 1; D <= 8; D++ {
		add(fmt.Sprintf("hypercube-D%d", D), topology.NewSchedule(topology.NewHypercubeClasses(D)))
	}
	for _, n := range []int{3, 4, 63, 64, 65, 130} {
		add(fmt.Sprintf("cycle-%d", n), topology.NewSchedule(topology.NewCycleClasses(n)))
	}
	for _, ab := range [][2]int{{3, 4}, {5, 13}, {3, 67}} {
		add(fmt.Sprintf("torus-%dx%d", ab[0], ab[1]), topology.NewSchedule(topology.NewTorusClasses(ab[0], ab[1])))
	}
	add("ccc-4", topology.NewSchedule(topology.NewCCCClasses(4)))
	add("butterfly-2x4", topology.NewSchedule(topology.NewButterflyClasses(2, 4)))
	for _, D := range []int{13, 14} {
		add(fmt.Sprintf("hypercube-D%d", D), topology.NewSchedule(topology.NewHypercubeClasses(D)))
	}
	add("cycle-4200", topology.NewSchedule(topology.NewCycleClasses(4200)))
	add("torus-65x70", topology.NewSchedule(topology.NewTorusClasses(65, 70)))
	add("ccc-10", topology.NewSchedule(topology.NewCCCClasses(10)))
	add("butterfly-2x10", topology.NewSchedule(topology.NewButterflyClasses(2, 10)))
	for _, n := range []int{10, 66, 4200} {
		cases = append(cases, genProgCase{fmt.Sprintf("cycle2-%d", n), topology.NewCycleTwoPhase(n), Directed})
	}
	return cases
}

// scalarFingerprint is the reference for GenProgram.Fingerprint: the same
// FNV-1a stream, walked one Sender call per destination instead of
// through SenderChunk.
func scalarFingerprint(g *GenProgram) string {
	h := uint64(fnvOffset64)
	h = fnvWord(h, uint64(g.mode))
	h = fnvWord(h, uint64(g.period))
	h = fnvWord(h, uint64(g.period)) // len(Rounds) of the materialized protocol
	for r := 0; r < g.period; r++ {
		h = fnvWord(h, uint64(scalarRoundArcs(g.rs, r)))
		for v := 0; v < g.n; v++ {
			if s := g.rs.Sender(r, v); s >= 0 {
				h = fnvWord(h, uint64(s))
				h = fnvWord(h, uint64(v))
			}
		}
	}
	return fmt.Sprintf("%016x", h)
}

// scalarRoundArcs counts round r's arcs one Sender call per destination.
func scalarRoundArcs(rs graph.RoundSource, r int) int {
	arcs := 0
	for v := 0; v < rs.N(); v++ {
		if rs.Sender(r, v) >= 0 {
			arcs++
		}
	}
	return arcs
}

// stepScalar is the reference for StepGenProgram: execution round i walked
// one Sender call per destination.
func stepScalar(f *FrontierState, rs graph.RoundSource, i int) int {
	r := i % rs.Rounds()
	gained := 0
	for v := 0; v < f.n; v++ {
		if s := rs.Sender(r, v); s >= 0 && f.informed.has(s) && !f.informed.has(v) {
			f.informed.set(v)
			gained++
		}
	}
	f.know += gained
	return gained
}

// TestGenProgramFingerprintMatchesMaterialized pins the streamed
// fingerprint against Protocol.Fingerprint of the materialized rounds, and
// the gen-backed Protocol's delegation to it.
func TestGenProgramFingerprintMatchesMaterialized(t *testing.T) {
	for _, tc := range genProgCases() {
		t.Run(tc.name, func(t *testing.T) {
			gen := CompileGen(tc.rs, tc.mode)
			p := gen.Materialize()
			if got, want := gen.Fingerprint(), p.Fingerprint(); got != want {
				t.Fatalf("gen fingerprint %s, materialized %s", got, want)
			}
			backed := &Protocol{Gen: gen, Period: gen.Period(), Mode: tc.mode}
			if got, want := backed.Fingerprint(), p.Fingerprint(); got != want {
				t.Fatalf("gen-backed protocol fingerprint %s, materialized %s", got, want)
			}
			// The scalar Sender walk must stream the identical byte sequence.
			if got, want := scalarFingerprint(gen), p.Fingerprint(); got != want {
				t.Fatalf("scalar fingerprint %s, materialized %s", got, want)
			}
		})
	}
}

// TestGenProgramMaterializeValid checks the materialized protocols are
// well-formed for their modes on the matching materialized graph.
func TestGenProgramMaterializeValid(t *testing.T) {
	graphs := map[string]*graph.Digraph{
		"hypercube-D4":  topology.Hypercube(4),
		"cycle-9":       topology.Cycle(9),
		"cycle-8":       topology.Cycle(8),
		"torus-3x4":     topology.Torus(3, 4),
		"ccc-3":         topology.CCC(3),
		"butterfly-2x2": topology.NewButterfly(2, 2).G,
		"cycle2-10":     topology.Cycle(10),
	}
	for _, tc := range genProgCases() {
		t.Run(tc.name, func(t *testing.T) {
			g := graphs[baseName(tc.name)]
			if g == nil {
				t.Fatalf("no graph for %s", tc.name)
			}
			p := CompileGen(tc.rs, tc.mode).Materialize()
			if err := p.Validate(g); err != nil {
				t.Fatalf("materialized protocol invalid: %v", err)
			}
		})
	}
}

// baseName strips the protocol suffix (-full, -half, -interleaved) from a
// case name; cycle2 cases keep their full name.
func baseName(name string) string {
	for _, suf := range []string{"-full", "-half", "-interleaved"} {
		if len(name) > len(suf) && name[len(name)-len(suf):] == suf {
			return name[:len(name)-len(suf)]
		}
	}
	return name
}

// TestStepGenProgramMatchesStepProgram is the execution differential: the
// generator-compiled step must inform exactly the vertices the
// CSR-compiled step of the materialized protocol informs, round for round,
// from every source — and so must the scalar Sender walk.
func TestStepGenProgramMatchesStepProgram(t *testing.T) {
	for _, tc := range genProgCases() {
		t.Run(tc.name, func(t *testing.T) {
			gen := CompileGen(tc.rs, tc.mode)
			n := gen.N()
			pr, err := Compile(gen.Materialize(), n, 1)
			if err != nil {
				t.Fatalf("Compile: %v", err)
			}
			run := NewGenRun(gen)
			for src := 0; src < n; src++ {
				fg := NewFrontierState(n, src)
				fc := NewFrontierState(n, src)
				fs := NewFrontierState(n, src)
				for i := 0; i < 4*gen.Period()+4; i++ {
					gg := fg.StepGenProgram(run, i)
					gc := fc.StepProgram(pr, i)
					gs := stepScalar(fs, tc.rs, i)
					if gg != gc || gs != gc {
						t.Fatalf("source %d round %d: gen gained %d, scalar %d, csr %d", src, i, gg, gs, gc)
					}
					for v := 0; v < n; v++ {
						if fg.Informed(v) != fc.Informed(v) || fs.Informed(v) != fc.Informed(v) {
							t.Fatalf("source %d round %d: informed(%d) gen %v scalar %v csr %v",
								src, i, v, fg.Informed(v), fs.Informed(v), fc.Informed(v))
						}
					}
				}
			}
		})
	}
}

// TestStepGenProgramMatchesScalar runs whole broadcasts on the word-form
// step and on the scalar Sender walk side by side: every round must gain
// the same count and leave the same frontier words. The word-form arc
// counts must equal the scalar ones too.
func TestStepGenProgramMatchesScalar(t *testing.T) {
	for _, tc := range wordCases() {
		t.Run(tc.name, func(t *testing.T) {
			gen := CompileGen(tc.rs, tc.mode)
			for r := 0; r < gen.Period(); r++ {
				if got, want := gen.RoundArcs(r), scalarRoundArcs(tc.rs, r); got != want {
					t.Fatalf("round %d: RoundArcs %d, scalar count %d", r, got, want)
				}
			}
			n := gen.N()
			run := NewGenRun(gen)
			rng := rand.New(rand.NewPCG(uint64(n), uint64(gen.Period())))
			sources := []int{0, n - 1, rng.IntN(n)}
			if n > graph.GenChunkVerts {
				// One source on the chunk boundary, whose frontier crosses
				// it at once, keeps the long cycle broadcasts short.
				sources = []int{graph.GenChunkVerts - 1}
			}
			for _, src := range sources {
				fg := NewFrontierState(n, src)
				fs := NewFrontierState(n, src)
				for i := 0; i < 2*n+gen.Period() && fs.InformedCount() < n; i++ {
					gg := fg.StepGenProgram(run, i)
					gs := stepScalar(fs, tc.rs, i)
					if gg != gs {
						t.Fatalf("source %d round %d: word step gained %d, scalar %d", src, i, gg, gs)
					}
					for w := range fs.informed {
						if fg.informed[w] != fs.informed[w] {
							t.Fatalf("source %d round %d: frontier word %d %064b, scalar %064b", src, i, w, fg.informed[w], fs.informed[w])
						}
					}
				}
				if fg.InformedCount() != fs.InformedCount() {
					t.Fatalf("source %d: word step informed %d, scalar %d", src, fg.InformedCount(), fs.InformedCount())
				}
			}
		})
	}
}

// TestStepGenProgramAllocs pins the zero-allocation contract of the
// generator-compiled frontier step.
func TestStepGenProgramAllocs(t *testing.T) {
	gen := CompileGen(topology.NewSchedule(topology.NewHypercubeClasses(8)).FullDuplex(), FullDuplex)
	n := gen.N()
	run := NewGenRun(gen)
	fr := NewFrontierState(n, 0)
	round := 0
	if avg := testing.AllocsPerRun(100, func() {
		fr.StepGenProgram(run, round)
		round++
	}); avg != 0 {
		t.Errorf("FrontierState.StepGenProgram allocates %.1f per step", avg)
	}
}

// TestGenProgramRoundArcs cross-checks the streamed arc counts against the
// materialized rounds.
func TestGenProgramRoundArcs(t *testing.T) {
	for _, tc := range genProgCases() {
		t.Run(tc.name, func(t *testing.T) {
			gen := CompileGen(tc.rs, tc.mode)
			p := gen.Materialize()
			for r := 0; r < gen.Period(); r++ {
				if got, want := gen.RoundArcs(r), len(p.Rounds[r]); got != want {
					t.Fatalf("round %d: RoundArcs %d, materialized %d", r, got, want)
				}
				if got, want := gen.RoundArcs(r), scalarRoundArcs(tc.rs, r); got != want {
					t.Fatalf("round %d: RoundArcs %d, scalar count %d", r, got, want)
				}
			}
			if gen.RoundArcs(-1) != 0 {
				t.Fatalf("RoundArcs(-1) != 0")
			}
		})
	}
}
