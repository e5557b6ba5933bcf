package delay

import (
	"math"
	"testing"

	"repro/internal/bounds"
	"repro/internal/gossip"
	"repro/internal/graph"
	"repro/internal/protocols"
	"repro/internal/topology"
)

func TestBuildCountsActivations(t *testing.T) {
	g := topology.Path(4)
	p := protocols.PathZigZag(4)
	tRounds := 8 // two periods
	dg, err := Build(g, p, tRounds)
	if err != nil {
		t.Fatal(err)
	}
	wantVerts := 0
	for r := 0; r < tRounds; r++ {
		wantVerts += len(p.Round(r))
	}
	if len(dg.Verts) != wantVerts {
		t.Errorf("verts = %d, want %d", len(dg.Verts), wantVerts)
	}
	if dg.Horizon != 4 {
		t.Errorf("horizon = %d, want period 4", dg.Horizon)
	}
	for _, a := range dg.Arcs {
		if a.W < 1 || a.W >= dg.Horizon {
			t.Fatalf("delay arc weight %d outside [1, s)", a.W)
		}
		// Arc consistency: head of A equals tail of B.
		if dg.Verts[a.A].To != dg.Verts[a.B].From {
			t.Fatal("delay arc does not chain through a common vertex")
		}
		if dg.Verts[a.B].Round-dg.Verts[a.A].Round != a.W {
			t.Fatal("weight does not match round difference")
		}
	}
}

func TestBuildRejectsInvalid(t *testing.T) {
	g := topology.Path(3)
	p := protocols.PathZigZag(3)
	if _, err := Build(g, p, 0); err == nil {
		t.Error("t=0 accepted")
	}
	bad := gossip.NewFinite([][]graph.Arc{{{From: 0, To: 2}}}, gossip.HalfDuplex)
	if _, err := Build(g, bad, 1); err == nil {
		t.Error("invalid protocol accepted")
	}
}

// TestGlobalNormEqualsMaxLocal cross-checks the two independent norm
// computations: sparse global power iteration vs. per-vertex block
// decomposition (norm property 8 / the permutation argument of Section 4).
func TestGlobalNormEqualsMaxLocal(t *testing.T) {
	g := topology.Cycle(6)
	p := protocols.PeriodicHalfDuplex(g)
	dg, err := Build(g, p, 3*p.Period)
	if err != nil {
		t.Fatal(err)
	}
	for _, lambda := range []float64{0.4, 0.618, 0.8} {
		global := dg.Matrix(lambda).Norm2()
		local := dg.Norm(lambda)
		if math.Abs(global-local) > 1e-7*(1+global) {
			t.Fatalf("λ=%g: global norm %g != max local norm %g", lambda, global, local)
		}
	}
}

// TestLemma43OnRealProtocols: the delay matrix norm of every constructed
// s-systolic half-duplex/directed protocol respects the Lemma 4.3 bound for
// its period.
func TestLemma43OnRealProtocols(t *testing.T) {
	type tc struct {
		name string
		dg   *Digraph
		s    int
	}
	var cases []tc

	add := func(name string, dg *Digraph, err error, s int) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cases = append(cases, tc{name, dg, s})
	}

	pg := topology.Path(6)
	pz := protocols.PathZigZag(6)
	dg1, err := Build(pg, pz, 3*pz.Period)
	add("path zig-zag", dg1, err, pz.Period)

	cg := topology.Cycle(8)
	ph := protocols.PeriodicHalfDuplex(cg)
	dg2, err := Build(cg, ph, 2*ph.Period)
	add("cycle periodic", dg2, err, ph.Period)

	db := topology.NewDeBruijnDigraph(2, 3)
	rr := protocols.RoundRobinDirected(db.G)
	dg3, err := Build(db.G, rr, 2*rr.Period)
	add("de Bruijn round-robin", dg3, err, rr.Period)

	dc := topology.DirectedCycle(6)
	c2 := protocols.CycleTwoPhase(6)
	dg4, err := Build(dc, c2, 12)
	add("directed cycle 2-phase", dg4, err, 2)

	for _, c := range cases {
		for _, lambda := range []float64{0.3, 0.618, 0.85} {
			norm := c.dg.Norm(lambda)
			bound := bounds.WHalfDuplex(maxInt(c.s, 2), lambda)
			if c.s == 2 {
				// For s=2 the paper argues directly (no w-bound); skip.
				continue
			}
			if norm > bound+1e-8 {
				t.Errorf("%s λ=%g: ‖M(λ)‖ = %g > Lemma 4.3 bound %g", c.name, lambda, norm, bound)
			}
		}
	}
}

// TestLemma61OnFullDuplexProtocol: full-duplex delay matrices respect the
// Section 6 bound λ + … + λ^{s−1}.
func TestLemma61OnFullDuplexProtocol(t *testing.T) {
	g := topology.Cycle(8)
	p := protocols.PeriodicFullDuplex(g)
	dg, err := Build(g, p, 3*p.Period)
	if err != nil {
		t.Fatal(err)
	}
	for _, lambda := range []float64{0.4, 0.6, 0.8} {
		norm := dg.Norm(lambda)
		bound := bounds.WFullDuplex(p.Period, lambda)
		if norm > bound+1e-8 {
			t.Errorf("λ=%g: ‖M(λ)‖ = %g > Lemma 6.1 bound %g", lambda, norm, bound)
		}
	}
}

// TestTheorem41EndToEnd: for each constructed protocol, taking λ₀ as the
// root of the Lemma 4.3 bound for its period (so ‖M(λ₀)‖ ≤ 1), the measured
// gossip completion time satisfies the Theorem 4.1 inequality
// t > log₂(n)/log₂(1/λ₀) − 2·log₂(t)/log₂(1/λ₀).
func TestTheorem41EndToEnd(t *testing.T) {
	check := func(name string, n, measured, s int) {
		t.Helper()
		if s < 3 {
			return
		}
		_, lambda := bounds.GeneralHalfDuplex(s)
		logInv := math.Log2(1 / lambda)
		rhs := math.Log2(float64(n))/logInv - 2*math.Log2(float64(measured))/logInv
		if float64(measured) <= rhs {
			t.Errorf("%s: measured %d rounds ≤ Theorem 4.1 bound %g (n=%d, s=%d)", name, measured, rhs, n, s)
		}
	}

	g := topology.Path(10)
	p := protocols.PathZigZag(10)
	res, err := gossip.Simulate(g, p, 1000)
	if err != nil {
		t.Fatal(err)
	}
	check("path zig-zag", g.N(), res.Rounds, p.Period)

	cg := topology.Cycle(12)
	cp := protocols.PeriodicHalfDuplex(cg)
	resC, err := gossip.Simulate(cg, cp, 2000)
	if err != nil {
		t.Fatal(err)
	}
	check("cycle periodic", cg.N(), resC.Rounds, cp.Period)

	db := topology.NewDeBruijn(2, 4)
	dp := protocols.PeriodicHalfDuplex(db.G)
	resD, err := gossip.Simulate(db.G, dp, 2000)
	if err != nil {
		t.Fatal(err)
	}
	check("de Bruijn periodic", db.G.N(), resD.Rounds, dp.Period)
}

// TestFullDuplexMxGolden reproduces Fig. 7 (s=4): each row j has entries
// λ, λ², λ³ at columns j, j+1, j+2.
func TestFullDuplexMxGolden(t *testing.T) {
	lambda := 0.5
	m := FullDuplexMx(4, 6, lambda)
	for j := 0; j < 6; j++ {
		for c := 0; c < 6; c++ {
			var want float64
			if c >= j && c <= j+2 {
				want = math.Pow(lambda, float64(c-j+1))
			}
			if math.Abs(m.At(j, c)-want) > 1e-12 {
				t.Errorf("Mx[%d][%d] = %g, want %g", j, c, m.At(j, c), want)
			}
		}
	}
}

// TestLemma61Matrix: the banded full-duplex local matrix satisfies
// ‖Mx‖ ≤ λ+…+λ^{s−1}, approaching it as t grows.
func TestLemma61Matrix(t *testing.T) {
	for _, s := range []int{3, 4, 6} {
		for _, lambda := range []float64{0.3, 0.5, 0.7} {
			norm, bound := Lemma61Check(s, 50, lambda)
			if norm > bound+1e-9 {
				t.Errorf("s=%d λ=%g: norm %g > bound %g", s, lambda, norm, bound)
			}
			if bound-norm > 0.05*bound {
				t.Errorf("s=%d λ=%g: bound far from tight (%g vs %g)", s, lambda, norm, bound)
			}
		}
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
