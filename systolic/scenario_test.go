// Scenario-engine coverage at the public layer: the zero-cost contract
// (inactive scenarios are byte-identical to the deterministic path on
// every registered kind × mode), the acceptance workload (hypercube d=10
// under 5% loss), seed reproducibility, worker-count independence, and
// budget truncation reported as statistics rather than failure.
package systolic

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/internal/gossip"
	"repro/internal/scenario"
)

// TestScenarioInactiveDifferentialAllKinds pins the "zero-cost when
// unused" contract across every registered topology kind and catalog
// protocol: a scenario with loss=0, no crashes, and no deleted arcs must
// execute byte-identically to the deterministic compiled path, round by
// round — seed included, because an inactive scenario never draws from
// its PRNG.
func TestScenarioInactiveDifferentialAllKinds(t *testing.T) {
	for _, kind := range Kinds() {
		params, ok := smallParams[kind]
		if !ok {
			t.Errorf("registered kind %q has no scenario coverage — add it to smallParams", kind)
			continue
		}
		for _, mp := range modeProtocols {
			t.Run(kind+"/"+mp.protocol, func(t *testing.T) {
				net, err := New(kind, params...)
				if err != nil {
					t.Fatalf("building %s: %v", kind, err)
				}
				if mp.symmetricOnly && !net.G.IsSymmetric() {
					t.Skip("symmetric-only protocol on a directed kind")
				}
				p, err := NewProtocol(mp.protocol, net, DefaultRoundBudget)
				if err != nil {
					t.Fatalf("building %s: %v", mp.protocol, err)
				}
				prog, err := CompileProtocol(net, p)
				if err != nil {
					t.Fatal(err)
				}
				n := net.G.N()
				sc := &Scenario{Seed: 99}
				comp, err := scenario.Compile(sc.spec(), n)
				if err != nil {
					t.Fatal(err)
				}
				if comp.Active() {
					t.Fatal("inactive scenario compiled active")
				}
				ref := gossip.NewState(n)
				got := gossip.NewState(n)
				tr := comp.Trial(0)
				for r := 0; !ref.GossipComplete(); r++ {
					if r >= DefaultRoundBudget {
						t.Fatal("reference run exhausted the budget")
					}
					ref.StepProgram(prog.prog, r)
					tr.Step(got, prog.prog, r)
					if !bytes.Equal(ref.Export(), got.Export()) {
						t.Fatalf("round %d: inactive scenario diverged from deterministic path", r)
					}
				}
				if !got.GossipComplete() {
					t.Fatal("scenario run did not complete with the deterministic path")
				}
			})
		}
	}
}

// TestCertifyScenarioInactiveDegenerate: with no faults every trial is the
// deterministic run, so the distribution collapses to a point equal to the
// deterministic measurement.
func TestCertifyScenarioInactiveDegenerate(t *testing.T) {
	net, err := New("debruijn", Degree(2), Diameter(4))
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProtocol("periodic-half", net, DefaultRoundBudget)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := CertifyScenario(context.Background(), net, p, &Scenario{Seed: 5}, 8)
	if err != nil {
		t.Fatal(err)
	}
	det := cert.Deterministic
	if det == nil || !det.Complete {
		t.Fatal("missing or incomplete deterministic baseline")
	}
	s := cert.Trials
	if s.Completed != 8 || s.Truncated != 0 {
		t.Fatalf("completed/truncated = %d/%d, want 8/0", s.Completed, s.Truncated)
	}
	if s.MinRounds != det.Measured || s.MaxRounds != det.Measured ||
		s.P50 != det.Measured || s.P99 != det.Measured {
		t.Fatalf("inactive distribution not degenerate at %d: %+v", det.Measured, s)
	}
	if s.MeanRounds != float64(det.Measured) || cert.MeanDriftRounds != 0 {
		t.Fatalf("inactive mean drifted: mean %v, drift %v", s.MeanRounds, cert.MeanDriftRounds)
	}
}

// TestCertifyScenarioHypercubeAcceptance is the issue's acceptance
// workload: hypercube d=10 under 5% uniform loss, 256 trials. The median
// must respect the deterministic lower bound, every trial must complete
// under the default budget, and the faulty mean must not beat the
// fault-free measurement.
func TestCertifyScenarioHypercubeAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("256-trial Monte-Carlo acceptance run; nightly CI covers it")
	}
	net, err := New("hypercube", Dimension(10))
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProtocol("periodic-full", net, DefaultRoundBudget)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := CertifyScenario(context.Background(), net, p, &Scenario{Loss: 0.05, Seed: 1}, 256)
	if err != nil {
		t.Fatal(err)
	}
	s := cert.Trials
	if s.Completed != 256 {
		t.Fatalf("only %d/256 trials completed (budget %d)", s.Completed, cert.Budget)
	}
	if s.P50 < cert.LowerBound.Rounds {
		t.Fatalf("p50 %d below the deterministic lower bound %d", s.P50, cert.LowerBound.Rounds)
	}
	if !cert.BoundRespected {
		t.Fatal("BoundRespected is false with p50 above the bound")
	}
	if cert.MeanDriftRounds < 0 {
		t.Fatalf("lossy executions finished faster than deterministic: drift %v", cert.MeanDriftRounds)
	}
	if s.P50 > s.P90 || s.P90 > s.P99 || s.MinRounds > s.P50 || s.P99 > s.MaxRounds {
		t.Fatalf("quantiles out of order: %+v", s)
	}
}

// TestCertifyScenarioSeedReproducibility: identical seeds reproduce
// identical distributions — fingerprint and all — independent of the
// worker count; a different seed moves the fingerprint.
func TestCertifyScenarioSeedReproducibility(t *testing.T) {
	net, err := New("hypercube", Dimension(6))
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProtocol("periodic-full", net, DefaultRoundBudget)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := CompileProtocol(net, p)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sc := &Scenario{Loss: 0.2, Seed: 1234}
	a, err := CertifyScenarioProgram(ctx, prog, sc, 64, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := CertifyScenarioProgram(ctx, prog, sc, 64, WithWorkers(7))
	if err != nil {
		t.Fatal(err)
	}
	if a.Trials != b.Trials {
		t.Fatalf("distribution depends on worker count:\n%+v\n%+v", a.Trials, b.Trials)
	}
	c, err := CertifyScenarioProgram(ctx, prog, &Scenario{Loss: 0.2, Seed: 1235}, 64)
	if err != nil {
		t.Fatal(err)
	}
	if c.Trials.DistributionFP == a.Trials.DistributionFP {
		t.Fatal("different seeds produced an identical distribution fingerprint")
	}
}

// TestCertifyScenarioTruncation: trials that exhaust the round budget are
// censored into the statistics — never an error (the satellite contract
// the serve layer's async jobs rely on).
func TestCertifyScenarioTruncation(t *testing.T) {
	net, err := New("debruijn", Degree(2), Diameter(4))
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProtocol("periodic-half", net, DefaultRoundBudget)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := CertifyScenario(context.Background(), net, p, &Scenario{Loss: 0.1, Seed: 3}, 16, WithRoundBudget(2))
	if err != nil {
		t.Fatalf("budget truncation must not fail the certification: %v", err)
	}
	s := cert.Trials
	if s.Truncated != 16 || s.Completed != 0 {
		t.Fatalf("truncated/completed = %d/%d, want 16/0", s.Truncated, s.Completed)
	}
	if s.MaxRounds != 2 || s.MinRounds != 2 {
		t.Fatalf("censored rounds %d..%d, want 2..2", s.MinRounds, s.MaxRounds)
	}
	if s.CompletionRate != 0 {
		t.Fatalf("completion rate %v, want 0", s.CompletionRate)
	}
	if cert.Deterministic == nil || cert.Deterministic.Complete {
		t.Fatal("deterministic baseline should also be truncated at budget 2")
	}
}

// TestCertifyScenarioValidation: bad trial counts and malformed fault
// models are ErrBadParam, not panics or silent clamps.
func TestCertifyScenarioValidation(t *testing.T) {
	net, err := New("cycle", Nodes(7))
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProtocol("round-robin", net, DefaultRoundBudget)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cases := []struct {
		name   string
		sc     *Scenario
		trials int
	}{
		{"zero-trials", &Scenario{}, 0},
		{"too-many-trials", &Scenario{}, MaxScenarioTrials + 1},
		{"bad-loss", &Scenario{Loss: 1.5}, 4},
		{"bad-crash-node", &Scenario{Crashes: []CrashWindow{{Node: 99, From: 0, To: 4}}}, 4},
		{"bad-deleted-arc", &Scenario{DeleteArcs: [][2]int{{0, 42}}}, 4},
	}
	for _, tc := range cases {
		if _, err := CertifyScenario(ctx, net, p, tc.sc, tc.trials); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestCertifyScenarioRejectsBroadcastPrograms: scenario trials step a
// gossip state, so a generator-backed protocol is rejected before any work
// with a typed error — ErrImplicit on an implicit network (which has no
// digraph to read), ErrBadParam for its broadcast-shaped CSR twin on a
// materialized one (whose 1-item program cannot run on an n-item state).
func TestCertifyScenarioRejectsBroadcastPrograms(t *testing.T) {
	ctx := context.Background()
	sc := &Scenario{Loss: 0.1, Seed: 1}

	big, err := New("hypercube", Dimension(20))
	if err != nil {
		t.Fatal(err)
	}
	if !big.Implicit() {
		t.Fatal("hypercube d=20 should build implicit")
	}
	p, err := NewProtocol("hypercube", big, DefaultRoundBudget)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CertifyScenario(ctx, big, p, sc, 4); !errors.Is(err, ErrImplicit) {
		t.Errorf("implicit hypercube: got %v, want ErrImplicit", err)
	}

	mat, err := New("hypercube", Dimension(4))
	if err != nil {
		t.Fatal(err)
	}
	gp, err := NewProtocol("hypercube", implicitTwin(t, mat), DefaultRoundBudget)
	if err != nil {
		t.Fatal(err)
	}
	if gp.Gen == nil {
		t.Fatal("protocol on the implicit twin is not generator-backed")
	}
	if _, err := CertifyScenario(ctx, mat, gp, sc, 4); !errors.Is(err, ErrBadParam) {
		t.Errorf("generator protocol on materialized hypercube: got %v, want ErrBadParam", err)
	}
}
