// Differential coverage for Evaluate's coefficient table: every bound it
// returns, cold or primed, serial or concurrent, inside or past the table's
// cap, must equal bit for bit what the uncached evaluator below computes.
package systolic

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/bounds"
	"repro/internal/gossip"
)

// evaluateOracle is Evaluate without the table: every call solves the
// general root and, for a Lemma 3.1 family, runs the Theorem 5.1 optimizer
// through the bounds package's per-mode entry points.
func evaluateOracle(net *Network, req Request) Bound {
	n := net.N()
	if req.Period == 2 {
		if req.Mode == gossip.FullDuplex {
			r := bounds.STwoFullDuplexLowerBound(n)
			if lg := ceilLog2(n); lg > r {
				r = lg
			}
			if n <= 4096 && net.G != nil {
				if diam := net.G.Diameter(); diam > r {
					r = diam
				}
			}
			return Bound{Rounds: r, Source: "s=2 sqrt(n) argument"}
		}
		return Bound{Rounds: bounds.STwoLowerBound(n), Source: "s=2 cycle argument"}
	}
	gen, lam := oracleGeneral(req)
	best := Bound{Coefficient: gen, Lambda: lam, Source: "general"}
	if net.FamilyKnown {
		sep := bounds.LemmaSeparator(net.Family, net.DegreeParam)
		spec, lamS := oracleSeparator(sep, req)
		if spec > best.Coefficient {
			best = Bound{Coefficient: spec, Lambda: lamS, Source: "separator"}
		}
		if diam := bounds.DiameterCoefficient(net.Family, net.DegreeParam); diam > best.Coefficient {
			best = Bound{Coefficient: diam, Lambda: 0, Source: "diameter"}
		}
	}
	best.Rounds = bounds.Theorem41LowerBound(n, lam)
	if lg := ceilLog2(n); lg > best.Rounds {
		best.Rounds = lg
	}
	if n <= 4096 && net.G != nil {
		if diam := net.G.Diameter(); diam > best.Rounds {
			best.Rounds = diam
		}
	}
	return best
}

func oracleGeneral(req Request) (e, lambda float64) {
	if req.Mode == gossip.FullDuplex {
		if req.Period == NonSystolic {
			return bounds.GeneralFullDuplexInfinity()
		}
		return bounds.GeneralFullDuplex(req.Period)
	}
	if req.Period == NonSystolic {
		return bounds.GeneralHalfDuplexInfinity()
	}
	return bounds.GeneralHalfDuplex(req.Period)
}

func oracleSeparator(sep bounds.Separator, req Request) (e, lambda float64) {
	if req.Mode == gossip.FullDuplex {
		if req.Period == NonSystolic {
			return bounds.SeparatorFullDuplexInfinity(sep)
		}
		return bounds.SeparatorFullDuplex(sep, req.Period)
	}
	if req.Period == NonSystolic {
		return bounds.SeparatorHalfDuplexInfinity(sep)
	}
	return bounds.SeparatorHalfDuplex(sep, req.Period)
}

// sameBound compares two bounds with the floats taken bit for bit.
func sameBound(a, b Bound) bool {
	return math.Float64bits(a.Coefficient) == math.Float64bits(b.Coefficient) &&
		math.Float64bits(a.Lambda) == math.Float64bits(b.Lambda) &&
		a.Rounds == b.Rounds && a.Source == b.Source
}

// resetCoeffTable empties the coefficient table for the test and restores
// the previous contents when it ends, so other tests see what they left.
func resetCoeffTable(t testing.TB) {
	coeffTable.mu.Lock()
	saved := coeffTable.m
	coeffTable.m = make(map[coeffKey]coeffs)
	coeffTable.mu.Unlock()
	t.Cleanup(func() {
		coeffTable.mu.Lock()
		coeffTable.m = saved
		coeffTable.mu.Unlock()
	})
}

func coeffTableLen() int {
	coeffTable.mu.RLock()
	defer coeffTable.mu.RUnlock()
	return len(coeffTable.m)
}

type evalCase struct {
	net *Network
	req Request
}

// evalCases lists every registry kind at its small size plus one implicit
// family instance, under every mode and the periods 2–8 and NonSystolic.
// The small sizes all have degree parameter 2; the implicit DB(3,12) adds
// a second degree.
func evalCases(t testing.TB) []evalCase {
	t.Helper()
	var nets []*Network
	for _, kind := range Kinds() {
		params, ok := smallParams[kind]
		if !ok {
			t.Fatalf("registered kind %q has no smallParams entry", kind)
		}
		net, err := New(kind, params...)
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, net)
	}
	implicit, err := New("debruijn", Degree(3), Diameter(12))
	if err != nil {
		t.Fatal(err)
	}
	if implicit.G != nil || !implicit.FamilyKnown {
		t.Fatalf("%s: want an implicit Lemma 3.1 family instance", implicit.Name)
	}
	nets = append(nets, implicit)
	periods := []int{2, 3, 4, 5, 6, 7, 8, NonSystolic}
	var cases []evalCase
	for _, net := range nets {
		for _, mode := range []Mode{Directed, HalfDuplex, FullDuplex} {
			for _, s := range periods {
				cases = append(cases, evalCase{net, Request{Mode: mode, Period: s}})
			}
		}
	}
	return cases
}

// TestEvaluateTableMatchesOracle: a cold Evaluate (the table empty) and a
// primed one (the entry stored) both return the oracle's bound, and so do
// GeneralBound and the norm-cap root.
func TestEvaluateTableMatchesOracle(t *testing.T) {
	resetCoeffTable(t)
	cases := evalCases(t)
	for _, c := range cases {
		want := evaluateOracle(c.net, c.req)
		cold := Evaluate(c.net, c.req)
		primed := Evaluate(c.net, c.req)
		if !sameBound(cold, want) || !sameBound(primed, want) {
			t.Errorf("%s %v s=%d: cold %+v, primed %+v, oracle %+v", c.net.Name, c.req.Mode, c.req.Period, cold, primed, want)
		}
		if c.req.Period == 2 {
			continue
		}
		e, lam := GeneralBound(c.req.Mode, c.req.Period)
		we, wlam := oracleGeneral(c.req)
		if math.Float64bits(e) != math.Float64bits(we) || math.Float64bits(lam) != math.Float64bits(wlam) {
			t.Errorf("GeneralBound(%v, %d) = (%v, %v), oracle (%v, %v)", c.req.Mode, c.req.Period, e, lam, we, wlam)
		}
		p := &gossip.Protocol{Mode: c.req.Mode, Period: c.req.Period}
		if root := rootFor(p); math.Float64bits(root) != math.Float64bits(wlam) {
			t.Errorf("rootFor(%v, s=%d) = %v, oracle %v", c.req.Mode, c.req.Period, root, wlam)
		}
	}
	// Directed and half-duplex share their entries: the table holds one
	// general entry per (full-duplex or not, period) and one per family
	// and degree on top, and nothing for s = 2.
	type entry struct {
		full   bool
		period int
		family Family
		degree int
	}
	keys := map[entry]bool{}
	for _, c := range cases {
		if c.req.Period == 2 {
			continue
		}
		k := entry{full: c.req.Mode == FullDuplex, period: c.req.Period, family: -1}
		keys[k] = true
		if c.net.FamilyKnown {
			k.family, k.degree = c.net.Family, c.net.DegreeParam
			keys[k] = true
		}
	}
	if n := coeffTableLen(); n != len(keys) {
		t.Errorf("table holds %d entries, want %d", n, len(keys))
	}
}

// TestEvaluatePrimedAllocs: a primed Evaluate on a family network allocates
// nothing (the table hit plus the memoized diameter).
func TestEvaluatePrimedAllocs(t *testing.T) {
	net, err := New("debruijn", Degree(2), Diameter(6))
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Mode: HalfDuplex, Period: 4}
	Evaluate(net, req)
	if allocs := testing.AllocsPerRun(100, func() { Evaluate(net, req) }); allocs != 0 {
		t.Errorf("primed Evaluate: %v allocs/op, want 0", allocs)
	}
}

// TestEvaluateTableConcurrent: eight goroutines evaluate every case in
// their own shuffled order against a cold table; each result equals the
// oracle's. Run under -race it also checks the table's locking.
func TestEvaluateTableConcurrent(t *testing.T) {
	cases := evalCases(t)
	want := make([]Bound, len(cases))
	for i, c := range cases {
		want[i] = evaluateOracle(c.net, c.req)
	}
	resetCoeffTable(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		order := rand.New(rand.NewSource(int64(g))).Perm(len(cases))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, i := range order {
				if got := Evaluate(cases[i].net, cases[i].req); !sameBound(got, want[i]) {
					t.Errorf("%s %v s=%d: got %+v, oracle %+v", cases[i].net.Name, cases[i].req.Mode, cases[i].req.Period, got, want[i])
				}
			}
		}()
	}
	wg.Wait()
}

// TestEvaluateTableCap: once the table holds coeffTableCap entries, new
// keys are still answered exactly and the table stops growing. The fill
// uses general-only keys at large periods, which solve in microseconds.
func TestEvaluateTableCap(t *testing.T) {
	resetCoeffTable(t)
	period := 9
	for coeffTableLen() < coeffTableCap {
		GeneralBound(HalfDuplex, period)
		GeneralBound(FullDuplex, period)
		period++
	}
	net, err := New("cycle", Nodes(16))
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{HalfDuplex, FullDuplex} {
		for s := period; s < period+4; s++ {
			req := Request{Mode: mode, Period: s}
			for range 2 {
				if got, want := Evaluate(net, req), evaluateOracle(net, req); !sameBound(got, want) {
					t.Errorf("past the cap, %v s=%d: got %+v, oracle %+v", mode, s, got, want)
				}
			}
			if n := coeffTableLen(); n != coeffTableCap {
				t.Fatalf("table grew past its cap: %d entries, cap %d", n, coeffTableCap)
			}
		}
	}
}

// BenchmarkEvaluate pairs a primed Evaluate (one table lookup plus the
// per-instance rounds) with the uncached oracle on the same key, DB(2,6)
// at half-duplex s = 4, so their ratio is the table's gain.
func BenchmarkEvaluate(b *testing.B) {
	net, err := New("debruijn", Degree(2), Diameter(6))
	if err != nil {
		b.Fatal(err)
	}
	req := Request{Mode: HalfDuplex, Period: 4}
	b.Run("primed", func(b *testing.B) {
		Evaluate(net, req)
		b.ReportAllocs()
		for b.Loop() {
			Evaluate(net, req)
		}
	})
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			evaluateOracle(net, req)
		}
	})
}
