package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/systolic"
)

// scan-scale: three seeded broadcast scans through
// systolic.AnalyzeBroadcastAll with two workers — a materialized hypercube
// d=17 on the CSR packed kernel, and an implicit hypercube d=22 and an
// implicit de Bruijn DB(2,21) on the generator packed kernel — plus a
// periodic-full generator-program simulation on the d=22 hypercube.

const scanWorkers = 2

// scanNets are the networks of one scan-scale set-up.
type scanNets struct {
	csr, gen, db *systolic.Network
}

// scanOp is one timed operation of an iteration.
type scanOp struct {
	name string // scan_csr, scan_gen, scan_db, sim_gen
	run  func(ctx context.Context, tr *Tracer, parent int64) (fingerprint string, err error)
}

func runScan(ctx context.Context, cfg Config, chk *Checker) (*Outcome, error) {
	plan := newScanPlan(cfg.Seed)
	var tr *Tracer
	if cfg.Trace {
		tr = newTracer()
	}
	var nets scanNets
	setups := 0
	discard := func() { nets = scanNets{} }
	setup, err := repeatSetup(setupRepeats, discard, func() error {
		root := tr.NewID()
		t0 := time.Now()
		var err error
		build := func(name string, ps ...systolic.Param) *systolic.Network {
			if err != nil {
				return nil
			}
			b0 := time.Now()
			var net *systolic.Network
			net, err = systolic.New(name, ps...)
			tr.Record(0, root, 0, "topology.build", b0, time.Now())
			return net
		}
		nets.csr = build("hypercube", systolic.Dimension(scanCSRDim))
		nets.gen = build("hypercube", systolic.Dimension(scanGenDim))
		nets.db = build("debruijn", systolic.Degree(2), systolic.Diameter(scanDBDiam))
		tr.Record(root, 0, 0, "bench.setup", t0, time.Now())
		setups++
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	if nets.csr.Implicit() || !nets.gen.Implicit() || !nets.db.Implicit() {
		return nil, fmt.Errorf("set-up: expected a materialized d=%d and implicit d=%d / DB(2,%d)", scanCSRDim, scanGenDim, scanDBDiam)
	}

	var acct *scanAccount
	if cfg.Trace {
		if acct, err = newScanAccount(nets); err != nil {
			return nil, err
		}
	}
	ops := []scanOp{
		{"scan_csr", scanRun(nets.csr, plan.CSRSources, "csr", acct, chk, func(r int) bool { return r == scanCSRDim })},
		{"scan_gen", scanRun(nets.gen, plan.GenSources, "gen", acct, chk, func(r int) bool { return r == scanGenDim })},
		{"scan_db", scanRun(nets.db, plan.DBSources, "gen", acct, chk, func(r int) bool { return r >= 1 && r <= scanDBDiam })},
		{"sim_gen", simRun(nets.gen, acct, chk)},
	}

	times := map[string][]float64{} // untraced op seconds
	firstFP := map[string]string{}  // report fingerprint of the first repeat
	var iterUntraced, iterTraced []float64
	start := time.Now()
	// Traced runs alternate untraced and traced iterations, so the overhead
	// share compares the same work, and end on a traced one.
	for it := 0; it < 3 || time.Since(start).Seconds() < cfg.Seconds || (cfg.Trace && it%2 == 1); it++ {
		useTracer := cfg.Trace && it%2 == 1
		var itr *Tracer
		if useTracer {
			itr = tr
		}
		busy := 0.0 // the iteration's operation time, collections excluded
		for _, op := range ops {
			// Each operation starts from a collected heap, so the previous
			// one's garbage neither runs up its time nor the peak RSS.
			runtime.GC()
			chk.Attempt()
			root := itr.NewID()
			o0 := time.Now()
			fp, err := op.run(ctx, itr, root)
			d := time.Since(o0).Seconds()
			if err != nil {
				chk.Fail("%s: %v", op.name, err)
			} else if prev, ok := firstFP[op.name]; ok {
				chk.Check(prev == fp, "%s: report differs from the first repeat", op.name)
			} else {
				firstFP[op.name] = fp
			}
			itr.Record(root, 0, 0, "bench.op", o0, time.Now())
			busy += time.Since(o0).Seconds()
			if err == nil && !useTracer {
				times[op.name] = append(times[op.name], d)
			}
		}
		if useTracer {
			iterTraced = append(iterTraced, busy)
		} else {
			iterUntraced = append(iterUntraced, busy)
		}
	}

	out := &Outcome{Tracer: tr}
	medians := make([]float64, 0, len(ops))
	total := 0.0
	count := 0
	for _, op := range ops {
		ts := times[op.name]
		medians = append(medians, median(ts))
		for _, t := range ts {
			total += t
			count++
		}
		out.Extra = append(out.Extra, fmt.Sprintf("%s_s %.4f s (median of %d runs, max %.4f s)", op.name, median(ts), len(ts), quantile(ts, 1)))
	}
	out.EndToEnd = map[string]Metric{
		"setup_s":      {setup.Seconds(), "s"},
		"peak_rss_mib": {peakRSSMiB(), "MiB"},
		"ops_per_s":    {float64(count) / total, "1/s"},
		"p50_ms":       {geomean(medians) * 1e3, "ms"},
	}
	if cfg.Trace {
		out.PerLayer = scanLayers(tr, acct, setups, len(iterTraced), median(iterTraced)/median(iterUntraced))
	}
	return out, nil
}

// scanAccount tallies what the traced kernels streamed.
type scanAccount struct {
	mu      sync.Mutex
	arcs    map[*systolic.Network]int64 // arcs per flooding round
	n       map[*systolic.Network]int64
	program []int64 // arcs per round of the periodic-full generator program
	rounds  int64
	streams map[string]int64 // arcs streamed per kernel: csr, gen, program
	bytes   float64          // computed frontier bytes touched
}

// newScanAccount counts, once and outside any timed region, the arcs each
// kernel streams per round.
func newScanAccount(nets scanNets) (*scanAccount, error) {
	a := &scanAccount{arcs: map[*systolic.Network]int64{}, n: map[*systolic.Network]int64{}, streams: map[string]int64{}}
	for _, net := range []*systolic.Network{nets.csr, nets.gen, nets.db} {
		a.arcs[net] = countArcs(net)
		a.n[net] = int64(net.N())
	}
	p, err := systolic.NewProtocol("periodic-full", nets.gen, scanSimBudget)
	if err != nil {
		return nil, err
	}
	pr, err := systolic.CompileProtocol(nets.gen, p)
	if err != nil {
		return nil, err
	}
	gp := pr.GenProgram()
	for r := 0; r < gp.Period(); r++ {
		a.program = append(a.program, int64(gp.RoundArcs(r)))
	}
	return a, nil
}

// countArcs counts the arcs one flooding round streams.
func countArcs(net *systolic.Network) int64 {
	if net.G != nil {
		return int64(net.G.M())
	}
	buf := make([]int32, net.Gen.DegBound())
	var m int64
	for v := 0; v < net.Gen.N(); v++ {
		m += int64(net.Gen.OutArcs(v, buf))
	}
	return m
}

// packedWordBytes is the frontier word per vertex of the 64-lane kernels;
// a flooding round reads one word per arc and reads and writes one per
// vertex. programBitBytes is the one-bit frontier of program sessions.
const (
	packedWordBytes = 8.0
	programBitBytes = 1.0 / 8
)

// floodObserver turns ScanRound callbacks into gossip.flood_round spans.
// Rounds after the first of a batch span from the batch's previous
// callback; a batch's first round starts when a worker became free (the
// scan's start, or the end of an earlier batch), since workers claim
// batches in order.
type floodObserver struct {
	tr     *Tracer
	parent int64
	kernel string
	net    *systolic.Network
	acct   *scanAccount
	mu     sync.Mutex
	last   map[int]time.Time
	free   []time.Time
}

func (o *floodObserver) Round(int, int, int) {}

func (o *floodObserver) ScanRound(batch, round, informed, total int) {
	now := time.Now()
	o.mu.Lock()
	start, ok := o.last[batch]
	if (round == 1 || !ok) && len(o.free) > 0 {
		sort.Slice(o.free, func(i, j int) bool { return o.free[i].Before(o.free[j]) })
		start, o.free = o.free[0], o.free[1:]
	}
	if start.IsZero() {
		start = now
	}
	if informed == total {
		o.free = append(o.free, now)
		delete(o.last, batch)
	} else {
		o.last[batch] = now
	}
	arcs := o.acct.arcs[o.net]
	o.mu.Unlock()
	o.acct.mu.Lock()
	o.acct.rounds++
	o.acct.streams[o.kernel] += arcs
	o.acct.bytes += packedWordBytes * float64(arcs+2*o.acct.n[o.net])
	o.acct.mu.Unlock()
	o.tr.Record(0, o.parent, 0, "gossip.flood_round."+o.kernel, start, now)
}

// scanRun is one AnalyzeBroadcastAll call with its correctness checks: every
// source's rounds must satisfy want, and the report fingerprint must match
// across repeats.
func scanRun(net *systolic.Network, sources []int, kernel string, acct *scanAccount, chk *Checker, want func(int) bool) func(context.Context, *Tracer, int64) (string, error) {
	return func(ctx context.Context, tr *Tracer, parent int64) (string, error) {
		opts := []systolic.Option{systolic.WithWorkers(scanWorkers), systolic.WithSources(sources)}
		id := tr.NewID()
		t0 := time.Now()
		if tr != nil {
			obs := &floodObserver{tr: tr, parent: id, kernel: kernel, net: net, acct: acct, last: map[int]time.Time{}}
			for i := 0; i < scanWorkers; i++ {
				obs.free = append(obs.free, t0)
			}
			opts = append(opts, systolic.WithTrace(obs))
		}
		rep, err := systolic.AnalyzeBroadcastAll(ctx, net, opts...)
		tr.Record(id, parent, 0, "gossip.scan."+kernel, t0, time.Now())
		if err != nil {
			return "", err
		}
		bad := 0
		for _, r := range rep.Rounds {
			if !want(r) {
				bad++
			}
		}
		chk.Check(bad == 0 && len(rep.Rounds) == len(sources), "%s: %d of %d sources report an unexpected eccentricity", net.Name, bad, len(rep.Rounds))
		return fingerprint(rep)
	}
}

// simRun compiles periodic-full on the implicit hypercube to a generator
// program and steps it one round at a time to completion.
func simRun(net *systolic.Network, acct *scanAccount, chk *Checker) func(context.Context, *Tracer, int64) (string, error) {
	return func(ctx context.Context, tr *Tracer, parent int64) (string, error) {
		t0 := time.Now()
		p, err := systolic.NewProtocol("periodic-full", net, scanSimBudget)
		t1 := time.Now()
		tr.Record(0, parent, 0, "protocols.build", t0, t1)
		if err != nil {
			return "", err
		}
		pr, err := systolic.CompileProtocol(net, p)
		t2 := time.Now()
		tr.Record(0, parent, 0, "gossip.compile", t1, t2)
		if err != nil {
			return "", err
		}
		sess, err := systolic.NewEngineFromProgram(pr, systolic.WithRoundBudget(scanSimBudget), systolic.WithWorkers(scanWorkers))
		if err != nil {
			return "", err
		}
		defer sess.Close()
		simID := tr.NewID()
		t3 := time.Now()
		for !sess.Done() && sess.Rounds() < scanSimBudget {
			r0 := time.Now()
			if _, err := sess.Step(ctx, 1); err != nil {
				return "", err
			}
			if tr != nil {
				arcs := acct.program[(sess.Rounds()-1)%len(acct.program)]
				acct.mu.Lock()
				acct.rounds++
				acct.streams["program"] += arcs
				acct.bytes += programBitBytes * float64(arcs+2*int64(net.N()))
				acct.mu.Unlock()
				tr.Record(0, simID, 0, "gossip.program_round", r0, time.Now())
			}
		}
		tr.Record(simID, parent, 0, "gossip.simulate", t3, time.Now())
		chk.Check(sess.Done() && sess.Rounds() == scanGenDim, "%s: periodic-full finished in %d rounds (done %v), want %d",
			net.Name, sess.Rounds(), sess.Done(), scanGenDim)
		return fmt.Sprintf("%d/%d/%v", sess.Rounds(), sess.Knowledge(), sess.Frontier()), nil
	}
}

// fingerprint hashes a report's JSON form.
func fingerprint(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("fingerprint: %w", err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(b)), nil
}

// scanLayers reduces the scan-scale trace to per-layer metrics. Times are
// per traced iteration; topology times are per set-up.
func scanLayers(tr *Tracer, acct *scanAccount, setups, iters int, overhead float64) map[string]Metric {
	spans := tr.Spans()
	isSetup := map[int64]bool{}
	for _, s := range spans {
		if s.Name == "bench.setup" {
			isSetup[s.ID] = true
		}
	}
	var iterSpans []Span
	for _, s := range spans {
		if !isSetup[s.ID] && !isSetup[s.Parent] {
			iterSpans = append(iterSpans, s)
		}
	}
	sum := SumByName(spans)
	per := func(d time.Duration) float64 { return d.Seconds() / float64(iters) }
	self, wall := LayerSelf(iterSpans)
	m := emptyLayers()
	m["topology.build_s"] = Metric{sum["topology.build"].Seconds() / float64(setups), "s"}
	var built int64
	for net, a := range acct.arcs {
		if !net.Implicit() {
			built += a
		}
	}
	m["topology.arcs_built"] = Metric{float64(built), "count"}
	m["protocols.build_s"] = Metric{per(sum["protocols.build"]), "s"}
	m["gossip.compile_s"] = Metric{per(sum["gossip.compile"]), "s"}
	m["gossip.simulate_s"] = Metric{per(sum["gossip.simulate"]), "s"}
	flood := sum["gossip.flood_round.csr"] + sum["gossip.flood_round.gen"]
	m["gossip.flood_round_s"] = Metric{per(flood), "s"}
	m["gossip.flood_ns_per_arc.csr"] = Metric{nsPerArc(sum["gossip.flood_round.csr"], acct.streams["csr"]), "ns"}
	m["gossip.flood_ns_per_arc.gen"] = Metric{nsPerArc(sum["gossip.flood_round.gen"], acct.streams["gen"]), "ns"}
	m["gossip.program_round_s"] = Metric{per(sum["gossip.program_round"]), "s"}
	m["gossip.program_ns_per_arc"] = Metric{nsPerArc(sum["gossip.program_round"], acct.streams["program"]), "ns"}
	streamed := acct.streams["csr"] + acct.streams["gen"] + acct.streams["program"]
	m["gossip.rounds"] = Metric{float64(acct.rounds) / float64(iters), "count"}
	m["gossip.arcs_streamed"] = Metric{float64(streamed) / float64(iters), "count"}
	if streamed > 0 {
		m["gossip.computed_bytes_per_arc"] = Metric{acct.bytes / float64(streamed), "B"}
	}
	addTraceShares(m, self, wall, overhead)
	return m
}

func nsPerArc(d time.Duration, arcs int64) float64 {
	if arcs == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(arcs)
}
