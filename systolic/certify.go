package systolic

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"repro/internal/bounds"
	"repro/internal/delay"
)

// DelayPlan is the compiled delay lowering of one protocol on one network:
// the per-round activation structure of the delay digraph (Definition 3.3),
// derived once, from which the digraph of any executed round count
// instantiates without re-walking the protocol — with instances memoized
// per round count and their M(λ) evaluations running against preallocated
// CSR/scratch storage (zero steady-state allocations in the λ loop).
//
// A DelayPlan is immutable and safe to share: serving layers cache it
// alongside the compiled Program, so repeated certifications of one
// schedule never rebuild the delay digraph.
type DelayPlan struct {
	net   *Network
	proto *Protocol
	fp    string
	plan  *delay.Plan
}

// CompileDelayPlan validates p on the network and compiles its delay
// lowering. Pair it with WithDelayPlan to make every Certify over the same
// schedule skip the digraph rebuild.
func CompileDelayPlan(net *Network, p *Protocol) (*DelayPlan, error) {
	if err := net.needG("delay plan on"); err != nil {
		return nil, err
	}
	pl, err := delay.NewPlan(net.G, p)
	if err != nil {
		return nil, fmt.Errorf("systolic: delay plan on %s: %w", net.Name, err)
	}
	return &DelayPlan{net: net, proto: p, fp: p.Fingerprint(), plan: pl}, nil
}

// compileDelayPlanValidated is CompileDelayPlan for protocols that already
// passed Validate (a compiled Program's schedule, a live session's
// protocol), skipping the duplicate validation walk.
func compileDelayPlanValidated(net *Network, p *Protocol) (*DelayPlan, error) {
	pl, err := delay.NewPlanValidated(net.G, p)
	if err != nil {
		return nil, fmt.Errorf("systolic: delay plan on %s: %w", net.Name, err)
	}
	return &DelayPlan{net: net, proto: p, fp: p.Fingerprint(), plan: pl}, nil
}

// DelayPlan compiles the delay lowering of the program's protocol — the
// certification-side artifact serving layers cache next to the compiled
// execution schedule. The program's schedule was validated at compile
// time, so no validation is repeated.
func (pr *Program) DelayPlan() (*DelayPlan, error) {
	return compileDelayPlanValidated(pr.net, pr.proto)
}

// Network returns the network the plan was compiled on.
func (dp *DelayPlan) Network() *Network { return dp.net }

// Fingerprint returns the FNV-1a schedule fingerprint of the source
// protocol — the identity plan caches key entries by.
func (dp *DelayPlan) Fingerprint() string { return dp.fp }

// matches reports whether the plan was compiled from p (pointer fast path,
// fingerprint otherwise). A session handed a mismatched plan silently
// compiles its own rather than certifying against the wrong schedule.
func (dp *DelayPlan) matches(p *Protocol) bool {
	return dp.proto == p || dp.fp == p.Fingerprint()
}

// normCapTol absorbs floating-point round-off when comparing ‖M(λ₀)‖
// against its structural cap of 1, which balanced schedules approach as
// the round count grows. The block Lanczos kernel is exact up to the
// rounding of its matrix-vector products: it reads path/zigzag n=700, whose
// true norm is at most 1, as 1 + 5.3e-15.
const normCapTol = 1e-9

// BroadcastBound is the broadcast section of a Certificate: the
// Liestman–Peters / Bermond et al. c(d)·log₂(n) constant the paper's
// Section 6 ties to the full-duplex systolic bounds, floored to its
// certified finite-n part (⌈log₂ n⌉ and the source eccentricity).
type BroadcastBound struct {
	// Source is the broadcast source vertex.
	Source int `json:"source"`
	// C is the asymptotic constant c(d) for the network's degree parameter;
	// +Inf (null in JSON) when none exists, as on paths and cycles.
	C float64 `json:"c"`
	// CBound is the certified finite-n lower bound on broadcast rounds.
	CBound int `json:"c_bound"`
	// Applicable is false when the run was budget-truncated: a prefix
	// measurement certifies nothing about b(G).
	Applicable bool `json:"applicable"`
	// Respected reports Measured ≥ CBound (only when Applicable). On a
	// per-source bound it reports every scanned source respecting the floor.
	Respected bool `json:"respected"`

	// The remaining fields summarize the per-source floor evaluation of an
	// all-sources scan (AnalyzeBroadcastAll.Bound): the floor is checked
	// against every scanned source's measured time inside the scan's summary
	// pass, Source is -1, and MinRounds/MaxRounds bracket the measurements.
	// Single-source certificates leave them zero/omitted.
	ScannedSources int `json:"scanned_sources,omitempty"`
	MinRounds      int `json:"min_rounds,omitempty"`
	MaxRounds      int `json:"max_rounds,omitempty"`
	// Violations counts sources measured below the floor (zero if the bound
	// holds — the expected outcome) and ViolatingSource identifies the first
	// scanned source below it, present only when Violations > 0.
	Violations      int  `json:"floor_violations,omitempty"`
	ViolatingSource *int `json:"violating_source,omitempty"`
}

// MarshalJSON encodes the bound with an infinite C as null.
func (b BroadcastBound) MarshalJSON() ([]byte, error) {
	type fields BroadcastBound // the same fields without these methods
	return json.Marshal(struct {
		Source int          `json:"source"` // shadows fields.Source and C,
		C      jsonConstant `json:"c"`      // keeping both in place
		fields
	}{b.Source, jsonConstant(b.C), fields(b)})
}

// UnmarshalJSON decodes a null C as +Inf.
func (b *BroadcastBound) UnmarshalJSON(data []byte) error {
	type fields BroadcastBound
	w := struct {
		C jsonConstant `json:"c"`
		*fields
	}{fields: (*fields)(b)}
	err := json.Unmarshal(data, &w)
	b.C = float64(w.C)
	return err
}

// Certificate is the typed outcome of the certification pipeline: the
// measured dissemination time of one protocol on one network together with
// every applicable verdict of the paper's lower-bound machinery — the
// delay-digraph statistics (Definition 3.3), ‖M(λ₀)‖ at the root of the
// period's norm cap (Definition 3.4, Lemma 4.3 / 6.1), the evaluated
// general/separator/diameter lower bound, and the Theorem 4.1 check against
// the measurement. Analyze and AnalyzeBroadcast are thin views over it.
// It is JSON-serializable; /v1/certify serves it verbatim.
type Certificate struct {
	Network string `json:"network"`
	// Mode is the communication model name ("directed", "half-duplex",
	// "full-duplex").
	Mode string `json:"mode"`
	// Period is the systolic period (0 for finite non-systolic).
	Period int `json:"period"`
	// Complete reports whether dissemination finished within the round
	// budget. When false the certificate describes the executed prefix —
	// the delay digraph is still well-defined — but the theorem verdicts
	// are marked inapplicable rather than vacuously true.
	Complete bool `json:"complete"`
	// Measured is the executed round count (the completion time when
	// Complete, the budget otherwise).
	Measured int `json:"measured_rounds"`
	// Budget is the round budget the session ran under.
	Budget int `json:"budget"`
	// LowerBound is the paper's bound for this network/mode/period
	// (independent of the run, so it is reported even on truncated runs).
	LowerBound Bound `json:"lower_bound"`
	// DelayVerts and DelayArcs are the delay-digraph sizes over the
	// executed rounds.
	DelayVerts int `json:"delay_verts"`
	DelayArcs  int `json:"delay_arcs"`
	// Lambda is the root λ₀ of the period's norm cap (0 when s = 2, where
	// the paper argues directly and no root applies).
	Lambda float64 `json:"lambda"`
	// NormAtRoot is ‖M(λ₀)‖ and NormCap the Lemma 4.3 / 6.1 cap (= 1 at
	// the root by construction); NormChecked is false when no root applies.
	// The cap is structural — it holds for any executed prefix of a
	// systolic protocol — so it is checked even on truncated runs.
	NormAtRoot    float64 `json:"norm_at_root"`
	NormCap       float64 `json:"norm_cap"`
	NormChecked   bool    `json:"norm_checked"`
	NormRespected bool    `json:"norm_respected"`
	// TheoremApplicable is true only for complete runs: Theorem 4.1 bounds
	// the completion time, so a budget-truncated measurement certifies
	// nothing. TheoremRespected is the Theorem 4.1 check (or the explicit
	// s=2 bound comparison) when applicable, false otherwise.
	TheoremApplicable bool `json:"theorem_applicable"`
	TheoremRespected  bool `json:"theorem_respected"`
	// Broadcast carries the broadcast-constant bound for broadcast
	// certificates and is nil for gossip ones.
	Broadcast *BroadcastBound `json:"broadcast,omitempty"`
}

// Report converts a gossip certificate to the classic Analyze report; the
// fields coincide by construction (the differential tests pin this).
func (c *Certificate) Report() *Report {
	return &Report{
		Network:          c.Network,
		Mode:             c.Mode,
		Period:           c.Period,
		Measured:         c.Measured,
		LowerBound:       c.LowerBound,
		DelayVerts:       c.DelayVerts,
		DelayArcs:        c.DelayArcs,
		NormAtRoot:       c.NormAtRoot,
		NormCap:          c.NormCap,
		TheoremRespected: c.TheoremRespected,
	}
}

// String renders the certificate.
func (c *Certificate) String() string {
	sys := "non-systolic"
	if c.Period > 0 {
		sys = fmt.Sprintf("%d-systolic", c.Period)
	}
	if c.Broadcast != nil {
		state := "complete"
		if !c.Complete {
			state = fmt.Sprintf("truncated at budget %d", c.Budget)
		}
		return fmt.Sprintf("%s: broadcast from %d in %d rounds (%s) ≥ certified bound %d (c(d)=%.4f asymptotic, applicable %v)",
			c.Network, c.Broadcast.Source, c.Measured, state, c.Broadcast.CBound, c.Broadcast.C, c.Broadcast.Applicable)
	}
	state := "complete"
	if !c.Complete {
		state = fmt.Sprintf("truncated at budget %d — theorem checks inapplicable", c.Budget)
	}
	return fmt.Sprintf("%s [%s, %s]: measured %d rounds (%s); lower bound %v; delay digraph %d verts / %d arcs; ‖M(λ₀)‖ = %.4f ≤ %.1f; Theorem 4.1 respected: %v",
		c.Network, c.Mode, sys, c.Measured, state, c.LowerBound, c.DelayVerts, c.DelayArcs, c.NormAtRoot, c.NormCap, c.TheoremRespected)
}

// Certify validates p on the network, simulates it (within the
// WithRoundBudget cap), and certifies the run against the paper's
// lower-bound machinery. Unlike Analyze it does not fail on a
// budget-truncated run: the certificate comes back with Complete false and
// the theorem verdicts marked inapplicable. Pass WithDelayPlan to reuse a
// compiled delay lowering across calls; serving layers combine it with
// NewEngineFromProgram so a repeated certification rebuilds nothing.
func Certify(ctx context.Context, net *Network, p *Protocol, opts ...Option) (*Certificate, error) {
	sess, err := NewEngine(net, p, opts...)
	if err != nil {
		return nil, fmt.Errorf("systolic: certify %s: %w", net.Name, err)
	}
	defer sess.Close()
	return sess.Certify(ctx)
}

// CertifyBroadcast builds the BFS-tree broadcast schedule from source,
// simulates it, and certifies the measurement against the broadcasting
// lower bound. Budget-truncated runs yield Complete false with the bound
// marked inapplicable.
//
// On an implicit network no BFS tree can be compiled, so certification
// streams single-source flooding through the generator kernel instead:
// under flooding the measured completion time is exactly the source's
// directed eccentricity, which is simultaneously the certificate's
// eccentricity floor — the certificate reports Mode "flooding" and holds
// by construction on complete runs.
func CertifyBroadcast(ctx context.Context, net *Network, source int, opts ...Option) (*Certificate, error) {
	if net.Implicit() {
		return certifyBroadcastImplicit(ctx, net, source, opts...)
	}
	sess, err := NewBroadcastEngine(net, source, opts...)
	if err != nil {
		return nil, fmt.Errorf("systolic: certify broadcast on %s: %w", net.Name, err)
	}
	defer sess.Close()
	return sess.Certify(ctx)
}

// certifyBroadcastImplicit certifies broadcast from source on an implicit
// network by streaming single-source flooding (vertex-range sharded across
// WithWorkers when the network clears the shard threshold).
func certifyBroadcastImplicit(ctx context.Context, net *Network, source int, opts ...Option) (*Certificate, error) {
	cfg := newConfig(opts)
	if source < 0 || source >= net.N() {
		return nil, fmt.Errorf("systolic: certify broadcast on %s: %w: source %d outside [0, %d)",
			net.Name, ErrBadParam, source, net.N())
	}
	measured, complete, err := floodEccentricityGen(ctx, net, source, cfg)
	if err != nil {
		return nil, err
	}
	// Flooding's completion time is the source eccentricity; on truncated
	// runs no eccentricity is known and the floor stays at the
	// information-theoretic part.
	ecc := 0
	if complete {
		ecc = measured
	}
	c, lb := broadcastBoundEcc(net, ecc)
	return &Certificate{
		Network:  net.Name,
		Mode:     "flooding",
		Complete: complete,
		Measured: measured,
		Budget:   cfg.budget,
		Broadcast: &BroadcastBound{
			Source:     source,
			C:          c,
			CBound:     lb,
			Applicable: complete,
			Respected:  complete && measured >= lb,
		},
	}, nil
}

// floodEccentricityGen floods from source alone over the generator, as a
// one-source batch of the scan driver: (rounds, true, nil) on completion —
// rounds is the source's directed eccentricity — (budget, false, nil) on
// truncation, and ErrUnreachable on a stalled frontier.
func floodEccentricityGen(ctx context.Context, net *Network, source int, cfg config) (int, bool, error) {
	var rounds [1]int
	cfg.observer = nil // implicit certification reports no per-round progress
	sc := floodScan{net: net, src: net.Gen, op: "certify broadcast", sources: []int{source}, rounds: rounds[:], cfg: cfg}
	if err := sc.run(ctx); err != nil {
		if errors.Is(err, ErrIncomplete) {
			return cfg.budget, false, nil
		}
		return 0, false, err
	}
	return rounds[0], true, nil
}

// Certify runs the session to completion (or its budget) and certifies the
// run — the unified entry point both Analyze and AnalyzeBroadcast are
// rebased on. Gossip sessions produce gossip certificates, broadcast
// sessions broadcast ones.
func (s *Session) Certify(ctx context.Context) (*Certificate, error) {
	if s.broadcast {
		return s.certifyBroadcast(ctx, "certify broadcast on")
	}
	return s.certifyGossip(ctx, "certify", true)
}

// certifyGossip is the gossip certification body; op names the public entry
// point in wrapped errors so Analyze keeps its historical error strings.
// detailIncomplete selects whether a budget-truncated run still gets its
// prefix delay digraph and norm evaluated — Certify wants that detail,
// while Analyze rejects incomplete runs outright and must not pay for
// analysis it will discard.
func (s *Session) certifyGossip(ctx context.Context, op string, detailIncomplete bool) (*Certificate, error) {
	net, p := s.net, s.proto
	res, err := s.Run(ctx)
	complete := true
	if err != nil {
		if !errors.Is(err, ErrIncomplete) {
			return nil, fmt.Errorf("systolic: %s %s: %w", op, net.Name, err)
		}
		complete = false
	}
	cert := &Certificate{
		Network:  net.Name,
		Mode:     p.Mode.String(),
		Period:   p.Period,
		Complete: complete,
		Measured: res.Rounds,
		Budget:   s.budget,
	}
	if !complete && !detailIncomplete {
		return cert, nil
	}
	cert.LowerBound = Evaluate(net, Request{Mode: p.Mode, Period: requestPeriod(p)})

	dp := s.cfg.delayPlan
	if dp == nil || !dp.matches(p) {
		// The session's protocol was validated when the engine compiled it.
		dp, err = compileDelayPlanValidated(net, p)
		if err != nil {
			return nil, fmt.Errorf("systolic: %s %s: %w", op, net.Name, err)
		}
	}
	inst, err := dp.plan.Instance(res.Rounds)
	if err != nil {
		return nil, fmt.Errorf("systolic: delay digraph: %w", err)
	}
	cert.DelayVerts, cert.DelayArcs = inst.Verts(), inst.Arcs()

	lambda := rootFor(p)
	cert.Lambda = lambda
	if lambda > 0 {
		cert.NormAtRoot = inst.Norm(lambda)
		cert.NormCap = 1
		cert.NormChecked = true
		cert.NormRespected = cert.NormAtRoot <= cert.NormCap+normCapTol
	}
	if complete {
		cert.TheoremApplicable = true
		if lambda > 0 {
			cert.TheoremRespected = theorem41Holds(net.N(), res.Rounds, lambda)
		} else {
			// s=2: no norm root; the mode-specific s=2 bound is already
			// folded into LowerBound.Rounds, so check the measurement
			// against it.
			cert.TheoremRespected = res.Rounds >= cert.LowerBound.Rounds
		}
	}
	return cert, nil
}

// certifyBroadcast certifies a broadcast session: the measured time against
// the c(d)·log₂(n) broadcasting bound. The delay machinery targets gossip
// protocols, so broadcast certificates carry no delay-digraph section.
func (s *Session) certifyBroadcast(ctx context.Context, op string) (*Certificate, error) {
	net := s.net
	res, err := s.Run(ctx)
	complete := true
	if err != nil {
		if !errors.Is(err, ErrIncomplete) {
			return nil, fmt.Errorf("systolic: %s %s: %w", op, net.Name, err)
		}
		complete = false
	}
	var c float64
	var lb int
	if net.Implicit() {
		// No BFS is possible on an implicit network, so the floor keeps its
		// run-independent information-theoretic part only. Protocol
		// dissemination time is not an eccentricity (rounds activate one
		// matching, not every arc), so — unlike flooding certificates — the
		// measurement cannot substitute for it.
		c, lb = broadcastBoundEcc(net, 0)
	} else {
		c, lb = broadcastBound(net, s.source)
	}
	return &Certificate{
		Network:  net.Name,
		Mode:     s.proto.Mode.String(),
		Period:   s.proto.Period,
		Complete: complete,
		Measured: res.Rounds,
		Budget:   s.budget,
		Broadcast: &BroadcastBound{
			Source:     s.source,
			C:          c,
			CBound:     lb,
			Applicable: complete,
			Respected:  complete && res.Rounds >= lb,
		},
	}, nil
}

// broadcastBound evaluates the broadcasting lower bound for a source: the
// asymptotic constant c(d) with its certified finite-n floor (⌈log₂ n⌉, the
// knowledge-doubling information bound) raised to the source eccentricity.
func broadcastBound(net *Network, source int) (c float64, lb int) {
	return broadcastBoundEcc(net, net.G.Eccentricity(source))
}

// broadcastBoundEcc is broadcastBound with the eccentricity supplied by the
// caller — the form implicit certification uses, where the flooding
// measurement itself is the eccentricity and no BFS is possible.
func broadcastBoundEcc(net *Network, ecc int) (c float64, lb int) {
	c = bounds.BroadcastConstant(net.DegreeParam)
	if !math.IsInf(c, 1) {
		lb = int(math.Ceil(c * net.LogN() * 0.999999))
		// c(d)·log n is asymptotic; the unconditional finite-n facts are
		// ⌈log₂ n⌉ and the source eccentricity. Use the weakest-safe floor:
		// ⌈log₂ n⌉ (every round at most doubles the informed set).
		if il := ceilLog2(net.N()); il < lb {
			lb = il // keep only the certified part
		}
	} else {
		lb = ceilLog2(net.N())
	}
	if ecc > lb {
		lb = ecc
	}
	return c, lb
}
