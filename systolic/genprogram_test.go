package systolic

import (
	"context"
	"errors"
	"runtime"
	"testing"
)

// implicitTwin re-wraps a materialized generator-backed network as its
// implicit form: same name, generator, schedule and degree parameter, no
// digraph. It is how the differential tests run the same instance through
// both program representations.
func implicitTwin(t *testing.T, net *Network) *Network {
	t.Helper()
	if net.Gen == nil || net.Sched == nil {
		t.Fatalf("%s carries no generator/schedule", net.Name)
	}
	imp := PlainImplicit(net.Name, net.Gen, net.DegreeParam)
	imp.Sched = net.Sched
	return imp
}

// genDiffCases enumerates every generator-eligible kind with the protocols
// that compile onto its schedule generator — directed (cycle2), half-duplex
// (periodic-half/interleaved) and full-duplex (periodic-full, hypercube).
func genDiffCases() []struct {
	name   string
	kind   string
	params []Param
	protos []string
} {
	periodic := []string{"periodic-full", "periodic-half", "periodic-interleaved"}
	return []struct {
		name   string
		kind   string
		params []Param
		protos []string
	}{
		{"cycle30", "cycle", []Param{Nodes(30)}, append([]string{"cycle2"}, periodic...)},
		{"hypercube5", "hypercube", []Param{Dimension(5)}, append([]string{"hypercube"}, periodic...)},
		{"torus4x6", "torus", []Param{Rows(4), Cols(6)}, periodic},
		{"ccc3", "ccc", []Param{Dimension(3)}, periodic},
		{"butterfly2x3", "butterfly", []Param{Degree(2), Diameter(3)}, periodic},
	}
}

// TestGenProtocolDifferential is the systolic-level differential pin: for
// every eligible kind × protocol, the generator-executed session on the
// implicit network and the CSR frontier twin on the materialized network
// must agree round for round — same fingerprint, same knowledge curve, same
// completion round, same report measurement — and their checkpoints must be
// interchangeable in both directions.
func TestGenProtocolDifferential(t *testing.T) {
	ctx := context.Background()
	for _, tc := range genDiffCases() {
		for _, proto := range tc.protos {
			t.Run(tc.name+"/"+proto, func(t *testing.T) {
				mat, err := New(tc.kind, tc.params...)
				if err != nil {
					t.Fatal(err)
				}
				if mat.Implicit() {
					t.Fatalf("%s built implicit; differential needs the materialized form", tc.name)
				}
				imp := implicitTwin(t, mat)
				p, err := NewProtocol(proto, imp, 4096)
				if err != nil {
					t.Fatal(err)
				}
				if p.Gen == nil {
					t.Fatalf("protocol %s on implicit %s is not generator-backed", proto, tc.kind)
				}
				gpr, err := CompileProtocol(imp, p)
				if err != nil {
					t.Fatal(err)
				}
				cpr, err := CompileProtocol(mat, p)
				if err != nil {
					t.Fatal(err)
				}
				if gpr.GenProgram() == nil || cpr.GenProgram() != nil {
					t.Fatalf("program selection: implicit gen=%v, materialized gen=%v",
						gpr.GenProgram() != nil, cpr.GenProgram() != nil)
				}
				if !gpr.Broadcast() || !cpr.Broadcast() {
					t.Fatal("generator-backed programs must be broadcast programs")
				}
				if gf, cf := gpr.Fingerprint(), cpr.Fingerprint(); gf != cf {
					t.Fatalf("fingerprints diverge: gen %s, csr %s", gf, cf)
				}
				n := mat.N()
				for _, src := range []int{0, n / 2, n - 1} {
					gs, err := NewEngineFromProgram(gpr, WithSource(src), WithRoundBudget(4096))
					if err != nil {
						t.Fatal(err)
					}
					cs, err := NewEngineFromProgram(cpr, WithSource(src), WithRoundBudget(4096))
					if err != nil {
						t.Fatal(err)
					}
					for !gs.Done() {
						if _, err := gs.Step(ctx, 1); err != nil {
							t.Fatal(err)
						}
						if _, err := cs.Step(ctx, 1); err != nil {
							t.Fatal(err)
						}
						if gs.Knowledge() != cs.Knowledge() || gs.Done() != cs.Done() {
							t.Fatalf("source %d round %d: gen knowledge %d done=%v, csr %d done=%v",
								src, gs.Rounds(), gs.Knowledge(), gs.Done(), cs.Knowledge(), cs.Done())
						}
					}
					if gs.Rounds() != cs.Rounds() {
						t.Fatalf("source %d: gen finished at %d, csr at %d", src, gs.Rounds(), cs.Rounds())
					}
				}
				// Reports: the measured time must coincide; the implicit bound
				// is the c(d)·log₂n floor (no BFS to refine it), so it can
				// only be ≤ the materialized eccentricity-aware bound.
				grep := mustBroadcastReport(t, gpr)
				crep := mustBroadcastReport(t, cpr)
				if grep.Measured != crep.Measured || grep.Source != crep.Source {
					t.Fatalf("reports diverge: gen %+v, csr %+v", grep, crep)
				}
				if grep.CBound > crep.CBound {
					t.Fatalf("implicit floor %d exceeds materialized bound %d", grep.CBound, crep.CBound)
				}
				// Checkpoints are interchangeable: a snapshot of either form
				// restores into the other and resumes to the same completion.
				checkpointInterchange(t, gpr, cpr, crep.Measured)
				checkpointInterchange(t, cpr, gpr, crep.Measured)
			})
		}
	}
}

func mustBroadcastReport(t *testing.T, pr *Program) *BroadcastReport {
	t.Helper()
	sess, err := NewEngineFromProgram(pr, WithRoundBudget(4096))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	rep, err := sess.AnalyzeBroadcast(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// checkpointInterchange runs `from` halfway, snapshots it, restores the
// snapshot into a fresh session on `to`, and checks the resumed run
// completes at the uninterrupted completion round.
func checkpointInterchange(t *testing.T, from, to *Program, complete int) {
	t.Helper()
	ctx := context.Background()
	a, err := NewEngineFromProgram(from, WithRoundBudget(4096))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	half := complete / 2
	if _, err := a.Step(ctx, half); err != nil {
		t.Fatal(err)
	}
	ck := a.Snapshot()
	b, err := NewEngineFromProgram(to, WithRoundBudget(4096))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.Restore(ck); err != nil {
		t.Fatalf("restoring %s checkpoint: %v", ck.Mode, err)
	}
	if b.Rounds() != half || b.Knowledge() != a.Knowledge() {
		t.Fatalf("restored session at round %d knowledge %d, want %d/%d",
			b.Rounds(), b.Knowledge(), half, a.Knowledge())
	}
	res, err := b.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != complete {
		t.Fatalf("resumed run completed at %d, uninterrupted at %d", res.Rounds, complete)
	}
}

// TestGenProtocolMaterializedStaysExplicit pins the selection rule: on a
// materialized network the catalog still returns explicit rounds (gossip
// semantics preserved); the generator form appears only on implicit ones.
func TestGenProtocolMaterializedStaysExplicit(t *testing.T) {
	net, err := New("hypercube", Dimension(4))
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProtocol("hypercube", net, 100)
	if err != nil {
		t.Fatal(err)
	}
	if p.Gen != nil {
		t.Fatal("materialized network should get explicit rounds, not a generator")
	}
	if p.Len() == 0 {
		t.Fatal("explicit protocol has no rounds")
	}
}

// TestGenProtocolIneligibleImplicit pins the error contract: a protocol
// whose schedule is data-dependent keeps answering ErrImplicit on implicit
// networks, and the message names the eligible set.
func TestGenProtocolIneligibleImplicit(t *testing.T) {
	net, err := New("hypercube", Dimension(4))
	if err != nil {
		t.Fatal(err)
	}
	imp := implicitTwin(t, net)
	for _, proto := range []string{"greedy-half", "greedy-full", "zigzag"} {
		if _, err := NewProtocol(proto, imp, 100); !errors.Is(err, ErrImplicit) {
			t.Errorf("protocol %s on implicit: err=%v, want ErrImplicit", proto, err)
		}
	}
}

// TestGenSessionMemoryBudget pins WithMaxMemory accounting on the streaming
// path: the cap meters the frontier words the session does allocate.
func TestGenSessionMemoryBudget(t *testing.T) {
	net, err := New("hypercube", Dimension(10))
	if err != nil {
		t.Fatal(err)
	}
	imp := implicitTwin(t, net)
	p, err := NewProtocol("hypercube", imp, 100)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := CompileProtocol(imp, p)
	if err != nil {
		t.Fatal(err)
	}
	// The session needs 128 B of frontier words plus 512 B of receive words.
	if _, err := NewEngineFromProgram(pr, WithMaxMemory(512)); !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("512 B cap: err=%v, want ErrMemoryBudget", err)
	}
	sess, err := NewEngineFromProgram(pr, WithMaxMemory(1<<20), WithRoundBudget(100))
	if err != nil {
		t.Fatalf("1 MiB cap: %v", err)
	}
	defer sess.Close()
	if res, err := sess.Run(context.Background()); err != nil || res.Rounds != 10 {
		t.Fatalf("run under cap: rounds=%d err=%v, want 10", res.Rounds, err)
	}
}

// TestGenSessionSourceValidation pins WithSource range checking on
// generator-backed sessions.
func TestGenSessionSourceValidation(t *testing.T) {
	net, err := New("cycle", Nodes(16))
	if err != nil {
		t.Fatal(err)
	}
	imp := implicitTwin(t, net)
	p, err := NewProtocol("cycle2", imp, 100)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := CompileProtocol(imp, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []int{-1, 16} {
		if _, err := NewEngineFromProgram(pr, WithSource(src)); !errors.Is(err, ErrBadParam) {
			t.Errorf("source %d: err=%v, want ErrBadParam", src, err)
		}
	}
}

// TestHypercubeD24GenAcceptance is the scale-tier acceptance point for
// generator-compiled protocols: the d=24 hypercube dimension-order
// broadcast (16.7M nodes, ~400M exchange arcs streamed, never stored)
// completes in exactly 24 rounds under a 512 MiB heap ceiling — two orders
// of magnitude under the ~6.4 GiB a CSR program would pack. Skipped under
// -short.
func TestHypercubeD24GenAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("scale acceptance test")
	}
	net, err := New("hypercube", Dimension(24))
	if err != nil {
		t.Fatal(err)
	}
	if !net.Implicit() {
		t.Fatal("hypercube d=24 should build implicit")
	}
	p, err := NewProtocol("hypercube", net, 24)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := CompileProtocol(net, p)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	const ceiling = 512 << 20
	sess, err := NewEngineFromProgram(pr, WithRoundBudget(24), WithMaxMemory(ceiling))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	rep, err := sess.AnalyzeBroadcast(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if rep.Measured != 24 {
		t.Fatalf("dimension-order broadcast took %d rounds, want 24", rep.Measured)
	}
	if rep.CBound > rep.Measured {
		t.Fatalf("certified bound %d exceeds measurement %d", rep.CBound, rep.Measured)
	}
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > ceiling {
		t.Errorf("heap grew %d bytes during gen simulation, ceiling %d", grew, ceiling)
	}
	t.Logf("d=24 gen broadcast: %d rounds, bound %d, heap-growth %dB",
		rep.Measured, rep.CBound, int64(after.HeapAlloc)-int64(before.HeapAlloc))
}
