package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/systolic"
)

// certify-cold: one goroutine certifies every admitted (kind, protocol)
// pair from nothing — New → NewProtocol → CompileProtocol → DelayPlan →
// NewEngineFromProgram → Session.Certify — with no cache carried between
// certifications.

// Expectation is the recorded outcome of one certification.
type Expectation struct {
	Rounds            int  `json:"measured_rounds"`
	DelayVerts        int  `json:"delay_verts"`
	DelayArcs         int  `json:"delay_arcs"`
	Complete          bool `json:"complete"`
	NormChecked       bool `json:"norm_checked"`
	NormRespected     bool `json:"norm_respected"`
	TheoremApplicable bool `json:"theorem_applicable"`
	TheoremRespected  bool `json:"theorem_respected"`
	// LowerBound is the certificate's bound, which Certify evaluates.
	LowerBound systolic.Bound `json:"lower_bound"`
}

func expectationOf(c *systolic.Certificate) Expectation {
	return Expectation{c.Measured, c.DelayVerts, c.DelayArcs, c.Complete,
		c.NormChecked, c.NormRespected, c.TheoremApplicable, c.TheoremRespected, c.LowerBound}
}

// holds reports whether every verdict of the certificate holds.
func (e Expectation) holds() bool {
	return e.Complete && e.TheoremApplicable && e.TheoremRespected && (!e.NormChecked || e.NormRespected)
}

func tableKey(j CertifyJob) string { return j.Pair.String() + "|" + j.Size.canonical() }

// certifyTable holds the expected outcome of every admitted pair at both
// sizes, recorded with --record-certify-table.
//
//go:embed testdata/certify_table.json
var certifyTableJSON []byte

func loadCertifyTable() (map[string]Expectation, error) {
	var t map[string]Expectation
	if err := json.Unmarshal(certifyTableJSON, &t); err != nil {
		return nil, fmt.Errorf("certify table: %w", err)
	}
	return t, nil
}

// certifyStats accumulates the traced certify-cold counters.
type certifyStats struct {
	arcsBuilt, rounds, verts, arcs int64
	evaluate                       time.Duration
	net                            *systolic.Network // of the last certification
	req                            systolic.Request
}

// certifyOne runs one cold certification. With a tracer it records a span
// per layer call under parent; Session.Certify is split at its last
// Observer.Round into simulation and verdict (delay instance, ‖M(λ₀)‖,
// bound evaluation).
func certifyOne(ctx context.Context, j CertifyJob, tr *Tracer, parent int64, st *certifyStats) (*systolic.Certificate, error) {
	t0 := time.Now()
	net, err := systolic.New(j.Kind, j.Size.params()...)
	t1 := time.Now()
	tr.Record(0, parent, 0, "topology.build", t0, t1)
	if err != nil {
		return nil, err
	}
	p, err := systolic.NewProtocol(j.Protocol, net, systolic.DefaultRoundBudget)
	t2 := time.Now()
	tr.Record(0, parent, 0, "protocols.build", t1, t2)
	if err != nil {
		return nil, err
	}
	pr, err := systolic.CompileProtocol(net, p)
	t3 := time.Now()
	tr.Record(0, parent, 0, "gossip.compile", t2, t3)
	if err != nil {
		return nil, err
	}
	dp, err := pr.DelayPlan()
	t4 := time.Now()
	tr.Record(0, parent, 0, "delay.plan", t3, t4)
	if err != nil {
		return nil, err
	}
	opts := []systolic.Option{systolic.WithDelayPlan(dp), systolic.WithRoundBudget(systolic.DefaultRoundBudget)}
	var lastRound time.Time
	if tr != nil {
		opts = append(opts, systolic.WithTrace(systolic.ObserverFunc(func(int, int, int) { lastRound = time.Now() })))
	}
	sess, err := systolic.NewEngineFromProgram(pr, opts...)
	if err != nil {
		return nil, err
	}
	t5 := time.Now()
	cert, err := sess.Certify(ctx)
	t6 := time.Now()
	sess.Close()
	if st != nil && err == nil {
		st.arcsBuilt += int64(net.G.M())
		st.rounds += int64(cert.Measured)
		st.verts += int64(cert.DelayVerts)
		st.arcs += int64(cert.DelayArcs)
	}
	if tr != nil {
		tr.Record(0, parent, 0, "gossip.session", t4, t5)
		split := lastRound
		if split.IsZero() {
			split = t5
		}
		tr.Record(0, parent, 0, "gossip.simulate", t5, split)
		tr.Record(0, parent, 0, "delay.norm", split, t6)
	}
	if st != nil && err == nil {
		st.net, st.req = net, systolic.Request{Mode: p.Mode, Period: p.Period}
		if !p.Systolic() {
			st.req.Period = systolic.NonSystolic
		}
	}
	return cert, err
}

// replayEvaluate times, outside the certification and its spans, the
// Evaluate call Certify makes inside its tail (delay.norm) for the last
// traced certification, and checks it gives the certificate's bound.
func (st *certifyStats) replayEvaluate(cert *systolic.Certificate) error {
	t0 := time.Now()
	bound := systolic.Evaluate(st.net, st.req)
	st.evaluate += time.Since(t0)
	if bound != cert.LowerBound {
		return fmt.Errorf("Evaluate gives %+v, the certificate %+v", bound, cert.LowerBound)
	}
	return nil
}

func runCertify(ctx context.Context, cfg Config, chk *Checker) (*Outcome, error) {
	var plan *CertifyPlan
	var table map[string]Expectation
	// Set-up parses the expectation table, derives the seeded plan and
	// warms the process on a fixed, seed-independent set of small jobs.
	setup, err := repeatSetup(setupRepeats, nil, func() error {
		var err error
		if table, err = loadCertifyTable(); err != nil {
			return err
		}
		plan = newCertifyPlan(cfg.Seed)
		for _, p := range certifyPool()[:certifyWarmJobs] {
			j := CertifyJob{Pair: p, Size: certifySizes[p.Kind][0]}
			if _, err := certifyOne(ctx, j, nil, 0, nil); err != nil {
				return fmt.Errorf("warm-up %s: %w", tableKey(j), err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	var tr *Tracer
	if cfg.Trace {
		tr = newTracer()
	}

	var lat []float64 // untraced per-certification seconds
	var total time.Duration
	var untracedPass, tracedPass []float64
	var stats certifyStats
	start := time.Now()
	// Whole cycles only: passes 2c and 2c+1 certify every pair once at each
	// size. Traced runs repeat each pass traced, on the same jobs.
	for k := 0; k < 2 || k%2 == 1 || time.Since(start).Seconds() < cfg.Seconds; k++ {
		jobs := plan.Pass(k)
		for _, traced := range []bool{false, true} {
			if traced && !cfg.Trace {
				continue
			}
			var ptr *Tracer
			var pst *certifyStats
			if traced {
				ptr, pst = tr, &stats
			}
			var passTime time.Duration // certifications only
			for _, j := range jobs {
				chk.Attempt()
				root := ptr.NewID()
				t0 := time.Now()
				cert, err := certifyOne(ctx, j, ptr, root, pst)
				d := time.Since(t0)
				ptr.Record(root, 0, int64(k), "bench.certify", t0, time.Now())
				passTime += d
				if err == nil && traced {
					err = pst.replayEvaluate(cert)
				}
				if err != nil {
					chk.Fail("%s: %v", tableKey(j), err)
					continue
				}
				got := expectationOf(cert)
				want, ok := table[tableKey(j)]
				chk.Check(ok && got == want && got.holds(),
					"%s: certificate %+v, recorded %+v", tableKey(j), got, want)
				if !traced {
					lat = append(lat, d.Seconds())
					total += d
				}
			}
			if traced {
				tracedPass = append(tracedPass, passTime.Seconds())
			} else {
				untracedPass = append(untracedPass, passTime.Seconds())
			}
		}
	}

	passes := len(untracedPass)
	certs := float64(len(lat))
	out := &Outcome{Tracer: tr}
	out.Extra = append(out.Extra,
		fmt.Sprintf("certs_per_s %.3f 1/s (%d certifications in %d passes of %d pairs, %.2f s)",
			certs/total.Seconds(), len(lat), passes, len(plan.pool), total.Seconds()),
		fmt.Sprintf("p50_ms %.3f ms | p99_ms %.3f ms per certification", quantile(lat, 0.5)*1e3, quantile(lat, 0.99)*1e3))
	out.EndToEnd = map[string]Metric{
		"setup_s":      {setup.Seconds(), "s"},
		"peak_rss_mib": {peakRSSMiB(), "MiB"},
		"ops_per_s":    {certs / total.Seconds(), "1/s"},
		"p50_ms":       {quantile(lat, 0.5) * 1e3, "ms"},
	}
	if cfg.Trace {
		sumU, sumT := 0.0, 0.0
		for i := range tracedPass {
			sumU += untracedPass[i]
			sumT += tracedPass[i]
		}
		out.PerLayer = certifyLayers(tr, stats, len(tracedPass), sumT/sumU)
	}
	return out, nil
}

// certifyWarmJobs is how many certifications each set-up runs to warm the
// process.
const certifyWarmJobs = 24

// certifyLayers reduces the certify-cold trace to per-layer metrics, per
// traced pass.
func certifyLayers(tr *Tracer, st certifyStats, passes int, overhead float64) map[string]Metric {
	spans := tr.Spans()
	sum := SumByName(spans)
	self, wall := LayerSelf(spans)
	per := func(d time.Duration) float64 { return d.Seconds() / float64(passes) }
	m := emptyLayers()
	m["topology.build_s"] = Metric{per(sum["topology.build"]), "s"}
	m["topology.arcs_built"] = Metric{float64(st.arcsBuilt) / float64(passes), "count"}
	m["protocols.build_s"] = Metric{per(sum["protocols.build"]), "s"}
	m["gossip.compile_s"] = Metric{per(sum["gossip.compile"]), "s"}
	m["gossip.simulate_s"] = Metric{per(sum["gossip.simulate"]), "s"}
	m["gossip.rounds"] = Metric{float64(st.rounds) / float64(passes), "count"}
	m["delay.plan_s"] = Metric{per(sum["delay.plan"]), "s"}
	m["delay.norm_s"] = Metric{per(sum["delay.norm"]), "s"}
	m["delay.verts"] = Metric{float64(st.verts) / float64(passes), "count"}
	m["delay.arcs"] = Metric{float64(st.arcs) / float64(passes), "count"}
	m["bounds.evaluate_s"] = Metric{per(st.evaluate), "s"}
	addTraceShares(m, self, wall, overhead)
	return m
}

// recordCertifyTable certifies every admitted pair at both sizes and writes
// the expectation table certify-cold checks against.
func recordCertifyTable(ctx context.Context, path string) error {
	table := map[string]Expectation{}
	for _, p := range certifyPool() {
		for slot, size := range certifySizes[p.Kind] {
			j := CertifyJob{Pair: p, Size: size, SizeSlot: slot}
			cert, err := certifyOne(ctx, j, nil, 0, nil)
			if err != nil {
				return fmt.Errorf("record %s: %w", tableKey(j), err)
			}
			e := expectationOf(cert)
			if !e.holds() {
				return fmt.Errorf("record %s: a verdict does not hold: %+v", tableKey(j), e)
			}
			table[tableKey(j)] = e
		}
	}
	b, err := json.MarshalIndent(table, "", "  ")
	if err != nil {
		return fmt.Errorf("record: %w", err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("record: %w", err)
	}
	fmt.Printf("recorded %d certifications to %s\n", len(table), path)
	return nil
}
