// Command e2ebench is the repository's end-to-end benchmark. It runs one
// seeded workload against the public API (repro/systolic and
// repro/systolic/serve), checks the outputs, prints every metric by name
// with its unit, and ends with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json;
// with --trace 1 the run records spans around every call into the
// program's layers and reports the per-layer metrics instead. See
// README.md for the workloads, the metrics and how to run it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Config is one benchmark invocation.
type Config struct {
	Workload string
	Seed     uint64
	Seconds  float64
	Trace    bool
	Workdir  string
}

// Metric is one reported number.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Outcome is what a workload run hands back to main.
type Outcome struct {
	EndToEnd map[string]Metric // reported with --trace 0
	PerLayer map[string]Metric // reported with --trace 1
	Extra    []string          // further human-readable lines
	Tracer   *Tracer
}

// Checker counts attempted and failed operations; a failure is a wrong
// output, a transport error or an unexpected status. The first few
// failures are printed to standard error.
type Checker struct {
	attempted, failed atomic.Int64
	mu                sync.Mutex
	shown             int
}

func (c *Checker) Attempt() { c.attempted.Add(1) }

// Fail records one failed operation.
func (c *Checker) Fail(format string, args ...any) {
	c.failed.Add(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.shown < 20 {
		c.shown++
		fmt.Fprintf(os.Stderr, "e2ebench: check failed: "+format+"\n", args...)
	}
}

// Check records one failed operation when ok is false and returns ok.
func (c *Checker) Check(ok bool, format string, args ...any) bool {
	if !ok {
		c.Fail(format, args...)
	}
	return ok
}

// allWorkloads is the order --workload all runs them in one process:
// ascending peak memory, so each workload's peak_rss_mib (the process's
// high-water mark) is still its own.
var allWorkloads = []string{"certify-cold", "serve-mixed", "scan-scale"}

var workloads = map[string]func(context.Context, Config, *Checker) (*Outcome, error){
	"scan-scale":   runScan,
	"certify-cold": runCertify,
	"serve-mixed":  runServe,
}

func main() {
	var cfg Config
	var seed, trace int
	flag.StringVar(&cfg.Workload, "workload", "", "workload: scan-scale, certify-cold, serve-mixed, or all of them in one process")
	flag.IntVar(&seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.Seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports per-layer metrics")
	flag.StringVar(&cfg.Workdir, "workdir", ".bench_build", "directory for spool files and traces")
	record := flag.String("record-certify-table", "", "write the certify-cold expectation table to this file and exit")
	flag.Parse()
	cfg.Seed, cfg.Trace = uint64(seed), trace == 1

	if *record != "" {
		if err := recordCertifyTable(context.Background(), *record); err != nil {
			fatalf("%v", err)
		}
		return
	}
	names := []string{cfg.Workload}
	if cfg.Workload == "all" {
		names = allWorkloads
	} else if _, ok := workloads[cfg.Workload]; !ok {
		fatalf("unknown workload %q (have %s, all)", cfg.Workload, strings.Join(allWorkloads, ", "))
	}
	if seed < 0 || cfg.Seconds <= 0 || (trace != 0 && trace != 1) {
		fatalf("--seed must be ≥ 0, --seconds > 0 and --trace 0 or 1")
	}
	if err := os.MkdirAll(cfg.Workdir, 0o755); err != nil {
		fatalf("%v", err)
	}

	var chk Checker
	metrics := map[string]Metric{}
	for _, name := range names {
		c := cfg
		c.Workload = name
		out, err := workloads[name](context.Background(), c, &chk)
		if err != nil {
			fatalf("%s: %v", name, err)
		}
		m := out.EndToEnd
		if cfg.Trace {
			m = out.PerLayer
			path := filepath.Join(cfg.Workdir, fmt.Sprintf("trace-%s-seed%d.jsonl", name, seed))
			if err := out.Tracer.WriteFile(path); err != nil {
				fatalf("%v", err)
			}
			fmt.Printf("trace: %d spans written to %s\n", len(out.Tracer.Spans()), path)
		}
		if len(names) > 1 {
			fmt.Printf("== %s\n", name)
		}
		for _, l := range out.Extra {
			fmt.Println(l)
		}
		printMetrics(m)
		for k, v := range m {
			if len(names) > 1 {
				k = name + "." + k
			}
			metrics[k] = v
		}
	}

	attempted, failed := chk.attempted.Load(), chk.failed.Load()
	if attempted < 1 {
		attempted = 1
		failed = 1
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{failed == 0, attempted, failed, metrics}
	b, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("fail_share: %.6f (%d failed of %d attempted)\n", float64(failed)/float64(attempted), failed, attempted)
	fmt.Println(string(b))
	if failed > 0 {
		os.Exit(1)
	}
}

func printMetrics(m map[string]Metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-40s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "e2ebench: "+format+"\n", args...)
	os.Exit(2)
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	f := pos - float64(lo)
	return s[lo]*(1-f) + s[hi]*f // +Inf-safe, unlike s[lo] + (s[hi]-s[lo])*f
}

// geomean returns the geometric mean of positive xs.
func geomean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// repeatSetup runs set-up n times and returns the median duration; the
// last set-up's state is kept by the closure. Before each set-up, untimed,
// discard (if not nil) drops the previous set-up's state and the heap is
// collected, so one set-up's garbage is not collected on the next one's
// time.
func repeatSetup(n int, discard func(), setup func() error) (time.Duration, error) {
	ds := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if discard != nil {
			discard()
		}
		runtime.GC()
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		ds = append(ds, float64(time.Since(t0)))
	}
	return time.Duration(median(ds)), nil
}

// setupRepeats is how many times scan-scale and certify-cold set up;
// setup_s is the median.
const setupRepeats = 3
