// Command reproduce is the one-shot reproduction driver: it regenerates all
// four numeric tables (Figs. 4, 5, 6, 8), checks every in-text golden value,
// verifies the Lemma 3.1 separators by BFS (including the literal-vs-marker
// de Bruijn finding), and certifies the upper-vs-lower protocol grid through
// the unified certification pipeline (systolic.Certify, jobs in parallel,
// deterministic output order). Output is the live counterpart of
// EXPERIMENTS.md.
package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"

	"repro/internal/bounds"
	"repro/internal/par"
	"repro/internal/separator"
	"repro/internal/topology"
	"repro/systolic"
)

var failed bool

func check(name string, got, want, tol float64) {
	status := "ok"
	if math.Abs(got-want) > tol {
		status = "MISMATCH"
		failed = true
	}
	fmt.Printf("  %-38s paper %-8.4f ours %-10.6f %s\n", name, want, got, status)
}

func main() {
	fmt.Println("== Golden values (all in-text constants) ==")
	for _, c := range []struct {
		name string
		s    int
		want float64
	}{
		{"e(3)", 3, 2.8808}, {"e(4)", 4, 1.8133}, {"e(5)", 5, 1.6502},
		{"e(6)", 6, 1.5363}, {"e(7)", 7, 1.5021}, {"e(8)", 8, 1.4721},
	} {
		e, _ := systolic.GeneralBound(systolic.HalfDuplex, c.s)
		check(c.name, e, c.want, 1.01e-4)
	}
	eInf, lamInf := systolic.GeneralBound(systolic.HalfDuplex, systolic.NonSystolic)
	check("e(inf)", eInf, 1.4404, 1.01e-4)
	check("lambda(inf) = 1/phi", lamInf, 0.6180, 1.01e-4)
	wbf := bounds.LemmaSeparator(bounds.WBF, 2)
	db := bounds.LemmaSeparator(bounds.DB, 2)
	eW4, _ := bounds.SeparatorHalfDuplex(wbf, 4)
	check("WBF(2,D) s=4", eW4, 2.0218, 2e-4)
	check("DB(2,D) s=4", bounds.BestHalfDuplex(db, 4), 1.8133, 1.01e-4)
	eWInf, _ := bounds.SeparatorHalfDuplexInfinity(wbf)
	check("WBF(2,D) s=inf", eWInf, 1.9750, 1.01e-4)
	eDInf, _ := bounds.SeparatorHalfDuplexInfinity(db)
	check("DB(2,D) s=inf", eDInf, 1.5876, 1.01e-4)
	check("c(2)", bounds.BroadcastConstant(2), 1.4404, 1.01e-4)
	check("c(3)", bounds.BroadcastConstant(3), 1.1374, 1.01e-4)
	check("c(4)", bounds.BroadcastConstant(4), 1.0562, 1.01e-4)

	fmt.Println("\n== Fig. 4 ==")
	fmt.Print(bounds.FormatFig4(bounds.Fig4(bounds.Fig4Periods)))
	fmt.Println("\n== Fig. 5 (d = 2, 3) ==")
	sys := []int{3, 4, 5, 6, 7, 8}
	fmt.Print(bounds.FormatTopologyTable(bounds.Fig5([]int{2, 3}, sys), sys))
	fmt.Println("\n== Fig. 6 (d = 2, 3, 4) ==")
	fmt.Print(bounds.FormatTopologyTable(bounds.Fig6([]int{2, 3, 4}), []int{bounds.SInfinity}))
	fmt.Println("\n== Fig. 8 (d = 2, 3) ==")
	fd := []int{3, 4, 5, 6, 7, 8, bounds.SInfinity}
	fmt.Print(bounds.FormatTopologyTable(bounds.Fig8([]int{2, 3}, fd), fd))

	fmt.Println("\n== Separator verification (BFS) ==")
	verifySeparators()

	fmt.Println("\n== Upper vs lower (certified protocols) ==")
	sweep()

	fmt.Println("\n== Monte-Carlo scenarios (lossy / churning executions) ==")
	scenarios()

	if failed {
		fmt.Println("\nREPRODUCTION: MISMATCHES FOUND")
		os.Exit(1)
	}
	fmt.Println("\nREPRODUCTION: all checks passed")
}

func verifySeparators() {
	bf := topology.NewButterfly(2, 4)
	report(separator.Butterfly(bf).Verify(bf.G))
	wd := topology.NewWrappedButterflyDigraph(2, 4)
	report(separator.WrappedButterflyDirected(wd).Verify(wd.G))
	w := topology.NewWrappedButterfly(2, 8)
	report(separator.WrappedButterfly(w).Verify(w.G))
	dbg := topology.NewDeBruijnDigraph(2, 9)
	lit := separator.DeBruijnLiteral(dbg)
	litDist := dbg.G.DistBetweenSets(lit.V1, lit.V2)
	fmt.Printf("  %-24s measured %2d  -- FAILS the claimed D-O(sqrt D) (shift evasion; see DESIGN.md)\n",
		lit.Name, litDist)
	report(separator.DeBruijnMarker(dbg).Verify(dbg.G))
	k := topology.NewKautzDigraph(2, 8)
	report(separator.KautzMarker(k).Verify(k.G))
}

func report(measured int, err error) {
	if err != nil {
		fmt.Printf("  VERIFY FAILED: %v\n", err)
		failed = true
		return
	}
	fmt.Printf("  separator verified: min distance %d meets its promise\n", measured)
}

// sweep drives the upper-vs-lower grid through the unified certification
// pipeline: each job runs systolic.Certify (compiled program + compiled
// delay plan + zero-alloc λ evaluations) and the certificate's typed
// verdicts — completeness, Theorem 4.1 applicability/respect, the
// ‖M(λ₀)‖ ≤ 1 structural check — replace the hand-rolled report
// comparisons. Jobs run concurrently; rows print in grid order.
func sweep() {
	jobs := []systolic.SweepJob{
		{Label: "periodic half-duplex", Kind: "debruijn",
			Params:   []systolic.Param{systolic.Degree(2), systolic.Diameter(5)},
			Protocol: systolic.UseProtocol("periodic-half", 0)},
		{Label: "periodic half-duplex", Kind: "wbf",
			Params:   []systolic.Param{systolic.Degree(2), systolic.Diameter(4)},
			Protocol: systolic.UseProtocol("periodic-half", 0)},
		{Label: "periodic full-duplex", Kind: "kautz",
			Params:   []systolic.Param{systolic.Degree(2), systolic.Diameter(4)},
			Protocol: systolic.UseProtocol("periodic-full", 0)},
		{Label: "periodic full-duplex", Kind: "butterfly",
			Params:   []systolic.Param{systolic.Degree(2), systolic.Diameter(3)},
			Protocol: systolic.UseProtocol("periodic-full", 0)},
		{Label: "dimension exchange", Kind: "hypercube",
			Params:   []systolic.Param{systolic.Dimension(6)},
			Protocol: systolic.UseProtocol("hypercube", 0)},
		{Label: "greedy non-systolic", Kind: "debruijn",
			Params:   []systolic.Param{systolic.Degree(2), systolic.Diameter(5)},
			Protocol: systolic.UseProtocol("greedy-half", 100000)},
	}
	// Jobs certify on the library's worker runtime, at most GOMAXPROCS at
	// once. A finished row is held back until its predecessors print, so
	// the table stays in grid order while each row still prints as early
	// as possible — long greedy jobs don't silence the whole section.
	var mu sync.Mutex
	type certRow struct {
		cert *systolic.Certificate
		n    int
		err  error
		done bool
	}
	rows := make([]certRow, len(jobs))
	next := 0
	par.Do(len(jobs), runtime.GOMAXPROCS(0), func(i int) {
		cert, n, err := certifyJob(jobs[i])
		mu.Lock()
		defer mu.Unlock()
		rows[i] = certRow{cert, n, err, true}
		for next < len(jobs) && rows[next].done {
			printCertRow(jobs[next].Label, rows[next].cert, rows[next].n, rows[next].err)
			next++
		}
	})
}

// scenarios stresses the certified protocols under faults: the paper's
// bounds are proved for fault-free executions, so every lossy or churning
// run must finish at or above the deterministic lower bound — a median
// below it would witness a broken simulator. Each row is a Monte-Carlo
// scenario certification (fixed seed, so the table is reproducible).
func scenarios() {
	rows := []struct {
		label    string
		kind     string
		params   []systolic.Param
		protocol string
		sc       systolic.Scenario
	}{
		{"5% uniform loss", "debruijn",
			[]systolic.Param{systolic.Degree(2), systolic.Diameter(5)},
			"periodic-half", systolic.Scenario{Loss: 0.05, Seed: 1}},
		{"10% loss + crash", "hypercube",
			[]systolic.Param{systolic.Dimension(6)},
			"hypercube", systolic.Scenario{Loss: 0.10, Seed: 2,
				Crashes: []systolic.CrashWindow{{Node: 1, From: 0, To: 6}}}},
		{"adversarial arc cut", "kautz",
			[]systolic.Param{systolic.Degree(2), systolic.Diameter(4)},
			"periodic-full", systolic.Scenario{Seed: 3,
				DeleteArcs: [][2]int{{0, 1}}}},
	}
	for _, row := range rows {
		net, err := systolic.New(row.kind, row.params...)
		if err == nil {
			var p *systolic.Protocol
			if p, err = systolic.NewProtocol(row.protocol, net, 0); err == nil {
				var cert *systolic.StatisticalCertificate
				cert, err = systolic.CertifyScenario(context.Background(), net, p, &row.sc, 64,
					systolic.WithRoundBudget(200000))
				if err == nil {
					ok := "ok"
					if !cert.BoundRespected || cert.Trials.Completed != cert.Trials.Trials {
						ok = "VIOLATION"
						failed = true
					}
					fmt.Printf("  %-10s %-20s trials %3d  p50 %3d >= bound %3d  drift %+6.2f  %s\n",
						cert.Network, row.label, cert.Trials.Trials,
						cert.Trials.P50, cert.LowerBound.Rounds, cert.MeanDriftRounds, ok)
					continue
				}
			}
		}
		fmt.Printf("  %s: %v\n", row.label, err)
		failed = true
	}
}

// certifyJob instantiates one grid cell and certifies it. Each job keeps
// its session serial — the jobs themselves already run concurrently.
func certifyJob(job systolic.SweepJob) (*systolic.Certificate, int, error) {
	net, err := systolic.New(job.Kind, job.Params...)
	if err != nil {
		return nil, 0, err
	}
	p, err := job.Protocol(net)
	if err != nil {
		return nil, 0, err
	}
	cert, err := systolic.Certify(context.Background(), net, p,
		systolic.WithRoundBudget(200000), systolic.WithWorkers(1))
	return cert, net.G.N(), err
}

func printCertRow(label string, cert *systolic.Certificate, n int, err error) {
	if err != nil {
		fmt.Printf("  %s: %v\n", label, err)
		failed = true
		return
	}
	ok := "ok"
	if !cert.Complete || !cert.TheoremApplicable || !cert.TheoremRespected ||
		cert.Measured < cert.LowerBound.Rounds || (cert.NormChecked && !cert.NormRespected) {
		ok = "VIOLATION"
		failed = true
	}
	fmt.Printf("  %-10s %-22s n=%-4d measured %4d >= bound %3d  norm@root %.4f  %s\n",
		cert.Network, label, n, cert.Measured, cert.LowerBound.Rounds, cert.NormAtRoot, ok)
}
