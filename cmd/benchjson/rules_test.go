package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// repoRoot is the module root, two levels above this package.
const repoRoot = "../.."

// committedRules loads the repository's BENCH.json.
func committedRules(t *testing.T) *Rules {
	t.Helper()
	rules, err := loadRules(filepath.Join(repoRoot, "BENCH.json"))
	if err != nil {
		t.Fatal(err)
	}
	return rules
}

// recordedRun converts testdata/run.txt: the raw `go test -bench` output
// of one real run of every benchmark BENCH.json names.
func recordedRun(t *testing.T) *Suite {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "run.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	run, err := parseBench(f)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// with returns a copy of run with one benchmark's result replaced.
func with(run *Suite, name string, edit func(*Result)) *Suite {
	out := &Suite{Benchmarks: make(map[string]Result, len(run.Benchmarks))}
	for k, v := range run.Benchmarks {
		out.Benchmarks[k] = v
	}
	res := out.Benchmarks[name]
	edit(&res)
	out.Benchmarks[name] = res
	return out
}

// flagged reports whether some violation starts with prefix.
func flagged(violations []string, prefix string) bool {
	for _, v := range violations {
		if strings.HasPrefix(v, prefix) {
			return true
		}
	}
	return false
}

func TestCommittedRulesPassRecordedRun(t *testing.T) {
	if v := check(committedRules(t), recordedRun(t), io.Discard); len(v) != 0 {
		t.Fatalf("the recorded run violates BENCH.json: %v", v)
	}
}

// TestCommittedRulesFailSeededRegressions seeds, one rule at a time, a
// regression into the recorded run: the numerator just past the rule's
// bound, or one allocation more than the ceiling. Each must fail its own
// rule.
func TestCommittedRulesFailSeededRegressions(t *testing.T) {
	rules, run := committedRules(t), recordedRun(t)
	for _, q := range rules.Ratios {
		t.Run(q.Num+"÷"+q.Den, func(t *testing.T) {
			den := run.Benchmarks[q.Den].NsOp
			seeded := with(run, q.Num, func(r *Result) { r.NsOp = den * *q.Max * 1.01 })
			if !flagged(check(rules, seeded, io.Discard), q.Num+" / "+q.Den+" =") {
				t.Error("numerator at 1.01 × the bound passes")
			}
		})
	}
	for _, a := range rules.Allocs {
		t.Run(a.Bench+"/allocs", func(t *testing.T) {
			seeded := with(run, a.Bench, func(r *Result) { r.AllocsOp = *a.Max + 1 })
			if !flagged(check(rules, seeded, io.Discard), a.Bench+":") {
				t.Errorf("%d allocs/op passes a ceiling of %d", *a.Max+1, *a.Max)
			}
		})
	}
}

// TestGenProgramStepRatioGate: the generator-program step runs at ~0.015×
// its CSR twin; at 0.2× it has lost most of its word-parallel gain, and
// the gate must say so on any runner.
func TestGenProgramStepRatioGate(t *testing.T) {
	rules, run := committedRules(t), recordedRun(t)
	csr := run.Benchmarks["BenchmarkGenProgramStepCSR"].NsOp
	seeded := with(run, "BenchmarkGenProgramStep", func(r *Result) { r.NsOp = 0.2 * csr })
	if !flagged(check(rules, seeded, io.Discard), "BenchmarkGenProgramStep / BenchmarkGenProgramStepCSR =") {
		t.Fatal("a generator step at 0.2× its CSR twin passes")
	}
}

func TestCommittedRulesFailMissingBenchmark(t *testing.T) {
	rules, run := committedRules(t), recordedRun(t)
	names := map[string]bool{}
	for _, q := range rules.Ratios {
		names[q.Num], names[q.Den] = true, true
	}
	for _, a := range rules.Allocs {
		names[a.Bench] = true
	}
	for name := range names {
		cut := with(run, name, func(*Result) {})
		delete(cut.Benchmarks, name)
		named := false
		for _, v := range check(rules, cut, io.Discard) {
			named = named || strings.Contains(v, name) && strings.HasSuffix(v, "missing from the run")
		}
		if !named {
			t.Errorf("a run without %s passes", name)
		}
	}
}

func TestMalformedRulesRejected(t *testing.T) {
	const why = `"why":"w"`
	for _, tc := range []struct{ name, doc string }{
		{"not JSON", `{`},
		{"no rules", `{}`},
		{"unknown field", `{"ratios":[{"num":"A","den":"B","max":1,` + why + `,"threshold":20}]}`},
		{"no bound", `{"ratios":[{"num":"A","den":"B",` + why + `}]}`},
		{"lower bound", `{"ratios":[{"num":"A","den":"B","min":1,` + why + `}]}`},
		{"zero bound", `{"ratios":[{"num":"A","den":"B","max":0,` + why + `}]}`},
		{"negative bound", `{"ratios":[{"num":"A","den":"B","max":-1,` + why + `}]}`},
		{"no numerator", `{"ratios":[{"den":"B","max":1,` + why + `}]}`},
		{"no denominator", `{"ratios":[{"num":"A","max":1,` + why + `}]}`},
		{"self ratio", `{"ratios":[{"num":"A","den":"A","max":1,` + why + `}]}`},
		{"ratio without why", `{"ratios":[{"num":"A","den":"B","max":1}]}`},
		{"allocs without max", `{"allocs":[{"bench":"A",` + why + `}]}`},
		{"negative allocs", `{"allocs":[{"bench":"A","max":-1,` + why + `}]}`},
		{"allocs without bench", `{"allocs":[{"max":0,` + why + `}]}`},
		{"allocs without why", `{"allocs":[{"bench":"A","max":0}]}`},
		{"fractional allocs", `{"allocs":[{"bench":"A","max":0.5,` + why + `}]}`},
	} {
		path := filepath.Join(t.TempDir(), "BENCH.json")
		if err := os.WriteFile(path, []byte(tc.doc), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := loadRules(path); err == nil {
			t.Errorf("%s: %s accepted", tc.name, tc.doc)
		}
	}
}

// TestRuleNamesResolveToBenchmarks resolves every name BENCH.json uses to
// a func Benchmark… in the module's _test.go files, and each sub-benchmark
// element to a string literal that function passes to Run, so a rename
// fails here and not only in the CI bench job.
func TestRuleNamesResolveToBenchmarks(t *testing.T) {
	subs := map[string]map[string]bool{} // Benchmark func → literal Run names
	fset := token.NewFileSet()
	err := filepath.WalkDir(repoRoot, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != repoRoot && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil && path != repoRoot {
				return filepath.SkipDir // another module's benchmarks are not in this run
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || !strings.HasPrefix(fn.Name.Name, "Benchmark") {
				continue
			}
			lits := map[string]bool{}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Run" {
					if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
						if s, err := strconv.Unquote(lit.Value); err == nil {
							lits[s] = true
						}
					}
				}
				return true
			})
			subs[fn.Name.Name] = lits
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) == 0 {
		t.Fatal("found no benchmark functions")
	}
	rules := committedRules(t)
	var names []string
	for _, q := range rules.Ratios {
		names = append(names, q.Num, q.Den)
	}
	for _, a := range rules.Allocs {
		names = append(names, a.Bench)
	}
	for _, name := range names {
		parts := strings.Split(name, "/")
		lits, ok := subs[parts[0]]
		if !ok {
			t.Errorf("%s: no func %s in any _test.go file", name, parts[0])
			continue
		}
		for _, sub := range parts[1:] {
			if !lits[sub] {
				t.Errorf("%s: %s runs no sub-benchmark named %q", name, parts[0], sub)
			}
		}
	}
}
