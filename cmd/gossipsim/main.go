// Command gossipsim builds a topology and a gossip protocol through the
// public systolic API, drives a resumable simulation session to completion,
// and reports the measured time against the paper's lower bound (the
// upper-vs-lower comparison of the evaluation).
//
// Topology parameters are named; only the ones the chosen kind requires
// are used (systolic.Lookup reports which):
//
//	gossipsim -topology debruijn -degree 2 -diameter 5 -protocol periodic-half
//	gossipsim -topology hypercube -dimension 6 -protocol hypercube
//	gossipsim -topology wbf -degree 2 -diameter 4 -protocol periodic-full
//	gossipsim -topology path -nodes 32 -protocol zigzag
//	gossipsim -topology grid -rows 4 -cols 5 -protocol greedy-half
//
// Long runs checkpoint and resume through the session API: -checkpoint FILE
// writes a JSON checkpoint when the run stops (completion or budget), and
// -resume FILE restores one before running — rebuild the same topology and
// protocol flags, raise -budget, and the simulation continues where it
// left off. -progress streams one JSON object per round to stdout
// ({"round":…,"knowledge":…,"target":…}), the machine-readable twin of
// -trace; the human-readable report moves to stderr so stdout stays pure
// JSON lines.
//
// Scenario mode runs the protocol under a deterministic fault model instead
// of the fault-free analysis: -loss P injects uniform per-arc message loss,
// -crash "node@from-to,…" takes nodes down for half-open round windows,
// -delete "from>to,…" removes arcs for the whole run, -seed roots the PRNG
// (same seed, same distribution), and -trials sets the Monte-Carlo trial
// count. Any of them switches the run to systolic.CertifyScenario and
// prints the statistical certificate:
//
//	gossipsim -topology hypercube -dimension 10 -protocol periodic-full \
//	  -loss 0.05 -seed 1 -trials 256
//
// Scale mode (-implicit) streams everything through the generator kernel —
// the arcs are computed on the fly, never materialized. It runs two demos
// back to back: a 64-source eccentricity scan (round profile, wall time,
// heap footprint), then a simulation of -protocol compiled to a generator
// program (rounds, resident set size, arcs streamed per round). Past the
// materialization threshold the registry builds such topologies implicitly
// anyway, so this demonstrates instances far beyond what adjacency lists
// could hold:
//
//	gossipsim -topology hypercube -dimension 24 -implicit -protocol hypercube
//
// -cpuprofile FILE and -memprofile FILE write pprof profiles for any mode.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/systolic"
)

func main() {
	topo := flag.String("topology", "debruijn", "network kind (see error message for list)")
	nodes := flag.Int("nodes", 16, "vertex count n (path, cycle, complete)")
	degree := flag.Int("degree", 2, "degree parameter d (paper families, tree)")
	diameter := flag.Int("diameter", 4, "diameter parameter D (paper families)")
	dimension := flag.Int("dimension", 4, "dimension D (hypercube, shuffle-exchange, ccc)")
	rows := flag.Int("rows", 4, "grid/torus rows")
	cols := flag.Int("cols", 4, "grid/torus cols")
	depth := flag.Int("depth", 3, "tree depth")
	proto := flag.String("protocol", "periodic-half", "protocol: "+strings.Join(systolic.ProtocolKinds(), ", "))
	budget := flag.Int("budget", 100000, "maximum simulated rounds")
	load := flag.String("load", "", "load the protocol from a schedule file instead of -protocol")
	save := flag.String("save", "", "write the constructed protocol to a schedule file")
	trace := flag.Bool("trace", false, "print the per-round dissemination curve")
	progress := flag.Bool("progress", false, "stream per-round progress as JSON lines on stdout")
	checkpoint := flag.String("checkpoint", "", "write a session checkpoint to this file when the run stops")
	resume := flag.String("resume", "", "restore the session from this checkpoint file before running")
	loss := flag.Float64("loss", 0, "scenario: per-arc per-round message loss probability in [0,1]")
	crash := flag.String("crash", "", "scenario: crash windows, comma-separated node@from-to (rounds, half-open)")
	deleteArcs := flag.String("delete", "", "scenario: deleted arcs, comma-separated from>to")
	seed := flag.Uint64("seed", 0, "scenario: PRNG seed (part of the distribution's identity)")
	trials := flag.Int("trials", 0, "scenario: Monte-Carlo trial count (any scenario flag implies 64)")
	implicitDemo := flag.Bool("implicit", false, "scale demo: stream a 64-source eccentricity scan plus a generator-program protocol simulation, arcs computed on the fly")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file when the run ends")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatalf("cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer writeMemProfile(*memprofile)
	}

	// Map the named flags onto the parameters the chosen kind requires.
	flagFor := map[string]*int{
		systolic.ParamNodes:     nodes,
		systolic.ParamDegree:    degree,
		systolic.ParamDiameter:  diameter,
		systolic.ParamDimension: dimension,
		systolic.ParamRows:      rows,
		systolic.ParamCols:      cols,
		systolic.ParamDepth:     depth,
	}
	paramFor := map[string]func(int) systolic.Param{
		systolic.ParamNodes:     systolic.Nodes,
		systolic.ParamDegree:    systolic.Degree,
		systolic.ParamDiameter:  systolic.Diameter,
		systolic.ParamDimension: systolic.Dimension,
		systolic.ParamRows:      systolic.Rows,
		systolic.ParamCols:      systolic.Cols,
		systolic.ParamDepth:     systolic.Depth,
	}
	t, ok := systolic.Lookup(*topo)
	if !ok {
		fatalf("unknown topology %q (accepted: %s)", *topo, strings.Join(systolic.Kinds(), ", "))
	}
	var params []systolic.Param
	for _, name := range t.ParamNames() {
		ctor, fv := paramFor[name], flagFor[name]
		if ctor == nil || fv == nil {
			fatalf("topology %q requires parameter %q, which this CLI has no flag for", *topo, name)
		}
		params = append(params, ctor(*fv))
	}
	net, err := systolic.New(*topo, params...)
	if err != nil {
		fatalf("%v", err)
	}

	if *implicitDemo {
		runImplicitDemo(net, *proto, *budget)
		return
	}

	var p *systolic.Protocol
	if *load != "" {
		f, err := os.Open(*load)
		if err != nil {
			fatalf("%v", err)
		}
		p, err = systolic.LoadProtocol(f)
		f.Close()
		if err != nil {
			fatalf("loading %s: %v", *load, err)
		}
		*proto = "loaded:" + *load
	} else {
		p, err = systolic.NewProtocol(*proto, net, *budget)
		if err != nil {
			fatalf("%v", err)
		}
	}
	if *save != "" {
		f, err := os.Create(*save)
		if err != nil {
			fatalf("%v", err)
		}
		if err := systolic.SaveProtocol(f, p); err != nil {
			fatalf("saving: %v", err)
		}
		if err := f.Close(); err != nil {
			fatalf("saving: %v", err)
		}
	}

	if *loss != 0 || *crash != "" || *deleteArcs != "" || *seed != 0 || *trials != 0 {
		if *resume != "" || *checkpoint != "" || *progress {
			fatalf("scenario mode (-loss/-crash/-delete/-seed/-trials) is a batch Monte-Carlo run; it does not combine with -resume, -checkpoint or -progress")
		}
		runScenario(net, p, *proto, *loss, *crash, *deleteArcs, *seed, *trials, *budget)
		return
	}

	opts := []systolic.Option{systolic.WithRoundBudget(*budget)}
	var curve []int
	var observers []systolic.Observer
	if *trace {
		observers = append(observers, systolic.ObserverFunc(func(_, knowledge, _ int) {
			curve = append(curve, knowledge)
		}))
	}
	if *progress {
		enc := json.NewEncoder(os.Stdout)
		observers = append(observers, systolic.ObserverFunc(func(round, knowledge, target int) {
			enc.Encode(struct {
				Round     int `json:"round"`
				Knowledge int `json:"knowledge"`
				Target    int `json:"target"`
			}{round, knowledge, target})
		}))
	}
	if len(observers) > 0 {
		obs := observers
		opts = append(opts, systolic.WithTrace(systolic.ObserverFunc(func(round, knowledge, target int) {
			for _, o := range obs {
				o.Round(round, knowledge, target)
			}
		})))
	}

	// With -progress, stdout carries only the JSON lines; everything meant
	// for humans goes to stderr.
	human := os.Stdout
	if *progress {
		human = os.Stderr
	}

	sess, err := systolic.NewEngine(net, p, opts...)
	if err != nil {
		fatalf("%v", err)
	}
	defer sess.Close()
	if *resume != "" {
		f, err := os.Open(*resume)
		if err != nil {
			fatalf("%v", err)
		}
		ck, err := systolic.ReadCheckpoint(f)
		f.Close()
		if err != nil {
			fatalf("resuming %s: %v", *resume, err)
		}
		if err := sess.Restore(ck); err != nil {
			fatalf("resuming %s: %v", *resume, err)
		}
		fmt.Fprintf(human, "resumed:    %s at round %d (knowledge %d/%d)\n",
			*resume, sess.Rounds(), sess.Knowledge(), sess.Target())
	}

	rep, err := sess.Analyze(context.Background())
	if err != nil {
		if errors.Is(err, systolic.ErrIncomplete) && *checkpoint != "" {
			writeCheckpoint(sess, *checkpoint)
			fmt.Fprintf(human, "incomplete: stopped at round %d with knowledge %d/%d; resume with -resume %s -budget N\n",
				sess.Rounds(), sess.Knowledge(), sess.Target(), *checkpoint)
			return
		}
		fatalf("%v", err)
	}
	if *checkpoint != "" {
		writeCheckpoint(sess, *checkpoint)
	}
	if *trace {
		fmt.Fprintf(human, "trace:      knowledge per round %v (target %d)\n", curve, sess.Target())
	}
	fmt.Fprintf(human, "network:    %s (n=%d, arcs=%d)\n", net.Name, net.G.N(), net.G.M())
	fmt.Fprintf(human, "protocol:   %s (%v mode, period %d)\n", *proto, p.Mode, p.Period)
	fmt.Fprintf(human, "measured:   %d rounds\n", rep.Measured)
	fmt.Fprintf(human, "lowerbound: %v\n", rep.LowerBound)
	fmt.Fprintf(human, "delay DG:   %d activations, %d delay arcs, ‖M(λ₀)‖ = %.4f\n",
		rep.DelayVerts, rep.DelayArcs, rep.NormAtRoot)
	fmt.Fprintf(human, "Theorem 4.1 respected: %v\n", rep.TheoremRespected)
}

// runImplicitDemo streams a 64-source eccentricity scan through the
// generator kernel and reports the round profile, wall time and heap
// footprint — the scale-tier demonstration. It needs a generator-eligible
// topology; past the materialization threshold the network is implicit
// already, below it the demo runs on an implicit view of it (the digraph
// dropped), so both halves stream at any size.
func runImplicitDemo(net *systolic.Network, proto string, budget int) {
	if net.Gen == nil {
		fatalf("-implicit needs a generator-eligible topology (hypercube, cycle, torus, ccc, butterfly, debruijn[-digraph], kautz[-digraph])")
	}
	imp := *net
	imp.G = nil
	n := net.N()
	count := 64
	if n < count {
		count = n
	}
	stride := n / count
	sources := make([]int, count)
	for i := range sources {
		sources[i] = i * stride
	}
	start := time.Now()
	rep, err := systolic.AnalyzeBroadcastAll(context.Background(), &imp,
		systolic.WithSources(sources), systolic.WithRoundBudget(budget))
	if err != nil {
		fatalf("%v", err)
	}
	elapsed := time.Since(start)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Printf("network:    %s (n=%d, implicit=%v, streaming generator kernel)\n", net.Name, n, net.Implicit())
	fmt.Printf("scan:       %d sources in %v\n", len(rep.Rounds), elapsed.Round(time.Millisecond))
	fmt.Printf("rounds:     worst=%d (source %d) best=%d (source %d) mean=%.2f\n",
		rep.Worst, rep.WorstSource, rep.Best, rep.BestSource, rep.MeanRounds)
	fmt.Printf("memory:     heap in use %d MiB, total from OS %d MiB\n", ms.HeapInuse>>20, ms.Sys>>20)
	runImplicitProtocol(&imp, proto, budget)
}

// runImplicitProtocol is the second half of the scale demo: it compiles
// -protocol to a generator program on the implicit network — every
// round's exchange arcs computed from the vertex id, never stored —
// simulates the broadcast to completion and prints rounds, resident set
// size and arcs streamed per round.
func runImplicitProtocol(demo *systolic.Network, proto string, budget int) {
	p, err := systolic.NewProtocol(proto, demo, budget)
	if err != nil {
		fmt.Printf("protocol:   %s does not compile to a generator program (eligible: %s)\n",
			proto, strings.Join(systolic.GenProtocolKinds(), ", "))
		return
	}
	pr, err := systolic.CompileProtocol(demo, p)
	if err != nil {
		fatalf("%v", err)
	}
	gp := pr.GenProgram()
	sess, err := systolic.NewEngineFromProgram(pr, systolic.WithRoundBudget(budget))
	if err != nil {
		fatalf("%v", err)
	}
	defer sess.Close()
	start := time.Now()
	rep, err := sess.AnalyzeBroadcast(context.Background())
	if err != nil {
		fatalf("%v", err)
	}
	elapsed := time.Since(start)
	var arcs, periodArcs int64
	for r := 0; r < rep.Measured; r++ {
		arcs += int64(gp.RoundArcs(r))
	}
	for r := 0; r < gp.Period(); r++ {
		periodArcs += int64(gp.RoundArcs(r))
	}
	perRound := float64(arcs) / float64(max(rep.Measured, 1))
	fmt.Printf("protocol:   %s (%v mode, period %d) as generator program %s\n",
		proto, p.Mode, p.Period, gp.Fingerprint())
	fmt.Printf("simulated:  broadcast from source %d in %d rounds ≥ certified bound %d (%v)\n",
		rep.Source, rep.Measured, rep.CBound, elapsed.Round(time.Millisecond))
	fmt.Printf("streamed:   %d arcs total, %.0f arcs/round, 0 stored (a CSR program would hold ~%d MiB)\n",
		arcs, perRound, periodArcs*16>>20)
	fmt.Printf("memory:     resident set %d MiB\n", rssBytes()>>20)
}

// rssBytes reports the process's resident set size from /proc/self/statm,
// falling back to the Go runtime's OS-reserved total where procfs is
// unavailable.
func rssBytes() int64 {
	if b, err := os.ReadFile("/proc/self/statm"); err == nil {
		fields := strings.Fields(string(b))
		if len(fields) >= 2 {
			if pages, err := strconv.ParseInt(fields[1], 10, 64); err == nil {
				return pages * int64(os.Getpagesize())
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.Sys)
}

// writeMemProfile snapshots the heap into path (after a GC, so the profile
// reflects live objects rather than garbage).
func writeMemProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		fatalf("memprofile: %v", err)
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		fatalf("memprofile: %v", err)
	}
	if err := f.Close(); err != nil {
		fatalf("memprofile: %v", err)
	}
}

// runScenario drives the Monte-Carlo scenario certification and prints the
// statistical certificate.
func runScenario(net *systolic.Network, p *systolic.Protocol, proto string, loss float64, crash, deleteArcs string, seed uint64, trials, budget int) {
	sc := &systolic.Scenario{Loss: loss, Seed: seed}
	var err error
	if sc.Crashes, err = parseCrashSpec(crash); err != nil {
		fatalf("%v", err)
	}
	if sc.DeleteArcs, err = parseArcSpec(deleteArcs); err != nil {
		fatalf("%v", err)
	}
	if trials == 0 {
		trials = 64
	}
	cert, err := systolic.CertifyScenario(context.Background(), net, p, sc, trials,
		systolic.WithRoundBudget(budget))
	if err != nil {
		fatalf("%v", err)
	}
	st := cert.Trials
	fmt.Printf("network:    %s (n=%d, arcs=%d)\n", net.Name, net.G.N(), net.G.M())
	fmt.Printf("protocol:   %s (%v mode, period %d)\n", proto, p.Mode, p.Period)
	fmt.Printf("scenario:   %s\n", cert.Scenario.Canonical())
	fmt.Printf("trials:     %d (%d completed, %d truncated at budget %d)\n",
		st.Trials, st.Completed, st.Truncated, cert.Budget)
	fmt.Printf("rounds:     p50/p90/p99 = %d/%d/%d, mean %.2f, min %d, max %d\n",
		st.P50, st.P90, st.P99, st.MeanRounds, st.MinRounds, st.MaxRounds)
	fmt.Printf("lowerbound: %v respected by median: %v\n", cert.LowerBound, cert.BoundRespected)
	if cert.Deterministic != nil {
		fmt.Printf("drift:      %+.2f rounds over the fault-free run (%d)\n",
			cert.MeanDriftRounds, cert.Deterministic.Measured)
	}
	fmt.Printf("replay:     -seed %d reproduces distribution %s\n", cert.Scenario.Seed, st.DistributionFP)
}

// parseCrashSpec parses "node@from-to,node@from-to,…" (empty spec → nil).
func parseCrashSpec(spec string) ([]systolic.CrashWindow, error) {
	var out []systolic.CrashWindow
	for _, part := range splitSpec(spec) {
		nodeStr, window, ok := strings.Cut(part, "@")
		fromStr, toStr, ok2 := strings.Cut(window, "-")
		if !ok || !ok2 {
			return nil, fmt.Errorf("crash window %q: want node@from-to", part)
		}
		node, err1 := strconv.Atoi(nodeStr)
		from, err2 := strconv.Atoi(fromStr)
		to, err3 := strconv.Atoi(toStr)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("crash window %q: want node@from-to", part)
		}
		out = append(out, systolic.CrashWindow{Node: node, From: from, To: to})
	}
	return out, nil
}

// parseArcSpec parses "from>to,from>to,…" (empty spec → nil).
func parseArcSpec(spec string) ([][2]int, error) {
	var out [][2]int
	for _, part := range splitSpec(spec) {
		fromStr, toStr, ok := strings.Cut(part, ">")
		if !ok {
			return nil, fmt.Errorf("deleted arc %q: want from>to", part)
		}
		from, err1 := strconv.Atoi(fromStr)
		to, err2 := strconv.Atoi(toStr)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("deleted arc %q: want from>to", part)
		}
		out = append(out, [2]int{from, to})
	}
	return out, nil
}

func splitSpec(spec string) []string {
	var parts []string
	for _, part := range strings.Split(spec, ",") {
		if part = strings.TrimSpace(part); part != "" {
			parts = append(parts, part)
		}
	}
	return parts
}

func writeCheckpoint(sess *systolic.Session, path string) {
	f, err := os.Create(path)
	if err != nil {
		fatalf("checkpoint: %v", err)
	}
	if err := systolic.WriteCheckpoint(f, sess.Snapshot()); err != nil {
		f.Close()
		fatalf("checkpoint: %v", err)
	}
	if err := f.Close(); err != nil {
		fatalf("checkpoint: %v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "gossipsim: "+format+"\n", args...)
	os.Exit(1)
}
