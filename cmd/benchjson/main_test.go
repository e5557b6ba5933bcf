package main

import (
	"io"
	"strings"
	"testing"
)

const sampleBenchOutput = `goos: linux
goarch: amd64
pkg: repro/internal/gossip
cpu: Some CPU @ 2.40GHz
BenchmarkStep-8            	   10000	     11000 ns/op	       0 B/op	       0 allocs/op
BenchmarkStep-8            	   12000	     10000 ns/op	       0 B/op	       0 allocs/op
BenchmarkStep-8            	   11000	     10500 ns/op	       0 B/op	       0 allocs/op
BenchmarkFrontierStep-8    	  500000	      2000 ns/op	       0 B/op	       0 allocs/op
BenchmarkFrontierStep-8    	  600000	      1900 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	repro/internal/gossip	2.0s
pkg: repro
BenchmarkSessionRun-8      	     100	    500000 ns/op	   20000 B/op	     150 allocs/op
ok  	repro	1.0s
`

func TestParseBenchAggregates(t *testing.T) {
	suite, err := parseBench(strings.NewReader(sampleBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(suite.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(suite.Benchmarks))
	}
	step := suite.Benchmarks["BenchmarkStep"]
	if step.NsOp != 10000 {
		t.Errorf("BenchmarkStep min ns/op = %v, want 10000", step.NsOp)
	}
	if step.Samples != 3 {
		t.Errorf("BenchmarkStep samples = %d, want 3", step.Samples)
	}
	if want := (11000.0 + 10000 + 10500) / 3; step.NsOpMean != want {
		t.Errorf("BenchmarkStep mean = %v, want %v", step.NsOpMean, want)
	}
	if step.Pkg != "repro/internal/gossip" {
		t.Errorf("BenchmarkStep pkg = %q", step.Pkg)
	}
	if step.AllocsOp != 0 || step.BOp != 0 {
		t.Errorf("BenchmarkStep allocs/B = %d/%d, want 0/0", step.AllocsOp, step.BOp)
	}
	sess := suite.Benchmarks["BenchmarkSessionRun"]
	if sess.NsOp != 500000 || sess.AllocsOp != 150 || sess.BOp != 20000 || sess.Pkg != "repro" {
		t.Errorf("BenchmarkSessionRun parsed wrong: %+v", sess)
	}
}

func TestParseBenchRejectsEmpty(t *testing.T) {
	if _, err := parseBench(strings.NewReader("PASS\nok repro 1.0s\n")); err == nil {
		t.Fatal("empty bench output accepted")
	}
}

func TestCheckRegressions(t *testing.T) {
	half, zero := 0.5, int64(0)
	rules := &Rules{
		Ratios: []Ratio{
			{Num: "BenchmarkFast", Den: "BenchmarkOracle", Max: &half, Why: "fast path"},
		},
		Allocs: []Alloc{{Bench: "BenchmarkFast", Max: &zero, Why: "hot path"}},
	}
	run := func(fast float64, allocs int64) *Suite {
		return &Suite{Benchmarks: map[string]Result{
			"BenchmarkFast":   {NsOp: fast, AllocsOp: allocs},
			"BenchmarkOracle": {NsOp: 10000},
		}}
	}

	// Within the bound (the bound is inclusive).
	for _, fast := range []float64{4000, 5000} {
		if v := check(rules, run(fast, 0), io.Discard); len(v) != 0 {
			t.Errorf("fast = %v flagged: %v", fast, v)
		}
	}

	// Past the bound, the rule fails.
	if v := check(rules, run(5100, 0), io.Discard); len(v) != 1 || !strings.Contains(v[0], "(max 0.5)") {
		t.Errorf("ratio past its bound not flagged: %v", v)
	}

	// A new allocation fails whatever the speed.
	if v := check(rules, run(1000, 1), io.Discard); len(v) != 1 || !strings.Contains(v[0], "allocs/op") {
		t.Errorf("alloc regression not flagged: %v", v)
	}

	// A benchmark missing from the run fails every rule that names it.
	missing := &Suite{Benchmarks: map[string]Result{"BenchmarkOracle": {NsOp: 10000}}}
	if v := check(rules, missing, io.Discard); len(v) != 2 {
		t.Errorf("missing benchmark not flagged by every rule: %v", v)
	}
}

func TestParseBenchExtraMetrics(t *testing.T) {
	// Custom b.ReportMetric units land between ns/op and the -benchmem
	// columns; the pair walk must keep all three standard fields and
	// preserve the custom one from the fastest repetition.
	out := `pkg: repro/internal/gossip
BenchmarkGenProgramStep-8	  100	 15000 ns/op	 4.250 bytes/node	 8 B/op	 1 allocs/op
BenchmarkGenProgramStep-8	  100	 14000 ns/op	 4.500 bytes/node	 0 B/op	 0 allocs/op
`
	suite, err := parseBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	res := suite.Benchmarks["BenchmarkGenProgramStep"]
	if res.NsOp != 14000 || res.BOp != 0 || res.AllocsOp != 0 || res.Samples != 2 {
		t.Fatalf("standard fields parsed wrong: %+v", res)
	}
	if res.Extra["bytes/node"] != 4.5 {
		t.Fatalf("extra metric of fastest repetition = %v, want 4.5", res.Extra)
	}
}
