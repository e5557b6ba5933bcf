// Command benchjson converts `go test -bench` output into a stable JSON
// document and checks a converted run against the same-run rules in
// BENCH.json — the two halves of the CI bench job:
//
//	for rep in 1 2 3 4 5 6; do go test -run='^$' -bench=. -benchmem -count=1 ./...; done | benchjson -out BENCH_CI.json
//	benchjson -check BENCH.json -candidate BENCH_CI.json
//
// Converting aggregates the repetitions of each benchmark (every result
// line of one name, from -count or from repeated passes) into one
// entry: the minimum ns/op (the noise-robust statistic), the mean, and the
// B/op, allocs/op and custom b.ReportMetric values ("bytes/node", …, kept
// under "extra") of the fastest repetition.
//
// The rules hold no timings, so they hold on any machine. A ratio rule
// caps the min ns/op of its numerator over that of its denominator, both
// from the candidate run (a lower bound is a cap with the two swapped); an
// allocs rule caps allocs/op.
// Each rule carries its reason. The check exits 1 on any violation, and a
// benchmark a rule names that is missing from the run is a violation.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// Suite is the converted run: benchmark name → aggregated result.
type Suite struct {
	Schema     int               `json:"schema"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

// Result aggregates the repetitions of one benchmark.
type Result struct {
	Pkg      string             `json:"pkg,omitempty"`
	NsOp     float64            `json:"ns_op"`      // minimum across repetitions
	NsOpMean float64            `json:"ns_op_mean"` // mean across repetitions
	BOp      int64              `json:"b_op"`       // of the fastest repetition
	AllocsOp int64              `json:"allocs_op"`  // of the fastest repetition
	Samples  int                `json:"samples"`
	Extra    map[string]float64 `json:"extra,omitempty"` // custom metrics, fastest repetition
}

// Rules is the BENCH.json document: checks evaluated inside one run.
type Rules struct {
	Ratios []Ratio `json:"ratios"`
	Allocs []Alloc `json:"allocs"`
}

// Ratio caps NsOp(Num) / NsOp(Den) at Max.
type Ratio struct {
	Num string   `json:"num"`
	Den string   `json:"den"`
	Max *float64 `json:"max"`
	Why string   `json:"why"`
}

// Alloc caps the allocs/op of one benchmark.
type Alloc struct {
	Bench string `json:"bench"`
	Max   *int64 `json:"max"`
	Why   string `json:"why"`
}

var benchName = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?$`)

// parseBench reads `go test -bench` output and aggregates it into a Suite.
// A result line is the benchmark name, the iteration count, then
// value-unit pairs in any order (custom b.ReportMetric units can appear
// between the standard ones, so the pairs are walked, not pattern-matched).
func parseBench(r io.Reader) (*Suite, error) {
	suite := &Suite{Schema: 1, Benchmarks: make(map[string]Result)}
	sums := make(map[string]float64)
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		m := benchName.FindStringSubmatch(fields[0])
		if m == nil {
			continue
		}
		if _, err := strconv.Atoi(fields[1]); err != nil {
			continue
		}
		name := m[1]
		var ns float64
		var bop, allocs int64
		var extra map[string]float64
		nsSeen := false
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				ns, nsSeen = v, true
			case "B/op":
				bop = int64(v)
			case "allocs/op":
				allocs = int64(v)
			default:
				if extra == nil {
					extra = make(map[string]float64)
				}
				extra[unit] = v
			}
		}
		if !nsSeen {
			continue
		}
		res, seen := suite.Benchmarks[name]
		if !seen || ns < res.NsOp {
			res.NsOp = ns
			res.BOp = bop
			res.AllocsOp = allocs
			res.Pkg = pkg
			res.Extra = extra
		}
		res.Samples++
		sums[name] += ns
		suite.Benchmarks[name] = res
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading bench output: %v", err)
	}
	for name, res := range suite.Benchmarks {
		res.NsOpMean = sums[name] / float64(res.Samples)
		suite.Benchmarks[name] = res
	}
	if len(suite.Benchmarks) == 0 {
		return nil, errors.New("no benchmark lines found in input")
	}
	return suite, nil
}

// validate rejects an empty rule set and any incomplete rule.
func (r *Rules) validate() error {
	if len(r.Ratios)+len(r.Allocs) == 0 {
		return errors.New("no rules")
	}
	for _, q := range r.Ratios {
		if q.Num == "" || q.Den == "" || q.Num == q.Den || q.Max == nil || *q.Max <= 0 || q.Why == "" {
			return fmt.Errorf("ratio %q / %q needs two distinct benchmarks, a positive max, and a why", q.Num, q.Den)
		}
	}
	for _, a := range r.Allocs {
		if a.Bench == "" || a.Max == nil || *a.Max < 0 || a.Why == "" {
			return fmt.Errorf("allocs %q needs a bench, a max of at least 0, and a why", a.Bench)
		}
	}
	return nil
}

// check evaluates every rule against the run, writes one line per rule to
// w and returns the violations (empty = pass).
func check(rules *Rules, run *Suite, w io.Writer) []string {
	var violations []string
	verdict := func(line string, ok bool) {
		tag := "ok"
		if !ok {
			tag = "FAIL"
			violations = append(violations, line)
		}
		fmt.Fprintf(w, "%-4s %s\n", tag, line)
	}
	for _, q := range rules.Ratios {
		num, okNum := run.Benchmarks[q.Num]
		den, okDen := run.Benchmarks[q.Den]
		if !okNum || !okDen {
			verdict(fmt.Sprintf("%s / %s: missing from the run", q.Num, q.Den), false)
			continue
		}
		ratio := num.NsOp / den.NsOp
		verdict(fmt.Sprintf("%s / %s = %.4g (max %g)", q.Num, q.Den, ratio, *q.Max), ratio <= *q.Max)
	}
	for _, a := range rules.Allocs {
		res, ok := run.Benchmarks[a.Bench]
		if !ok {
			verdict(a.Bench+": missing from the run", false)
			continue
		}
		verdict(fmt.Sprintf("%s: %d allocs/op (max %d)", a.Bench, res.AllocsOp, *a.Max), res.AllocsOp <= *a.Max)
	}
	return violations
}

// decodeFile reads one JSON document into v, rejecting unknown fields.
func decodeFile(path string, v any) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("parsing %s: %v", path, err)
	}
	return nil
}

// loadRules reads and validates a rules file.
func loadRules(path string) (*Rules, error) {
	var r Rules
	if err := decodeFile(path, &r); err != nil {
		return nil, err
	}
	if err := r.validate(); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &r, nil
}

func writeSuite(path string, s *Suite) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "" || path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func main() {
	rulesPath := flag.String("check", "", "rules file (BENCH.json): check -candidate against it instead of converting")
	candidatePath := flag.String("candidate", "", "converted run to check (check mode)")
	out := flag.String("out", "-", "output path for the converted JSON (- = stdout)")
	flag.Parse()

	if *rulesPath != "" {
		if *candidatePath == "" {
			fatalf("check mode needs -candidate")
		}
		rules, err := loadRules(*rulesPath)
		if err != nil {
			fatalf("%v", err)
		}
		var candidate Suite
		if err := decodeFile(*candidatePath, &candidate); err != nil {
			fatalf("%v", err)
		}
		if violations := check(rules, &candidate, os.Stdout); len(violations) > 0 {
			fatalf("%d of %d rules violated", len(violations), len(rules.Ratios)+len(rules.Allocs))
		}
		fmt.Println("benchjson: every rule holds")
		return
	}

	suite, err := parseBench(os.Stdin)
	if err != nil {
		fatalf("%v", err)
	}
	if err := writeSuite(*out, suite); err != nil {
		fatalf("%v", err)
	}
	fmt.Fprintf(os.Stderr, "benchjson: %d benchmarks written to %s\n", len(suite.Benchmarks), *out)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchjson: "+format+"\n", args...)
	os.Exit(1)
}
