package systolic

import (
	"context"
	"fmt"

	"repro/internal/bounds"
	"repro/internal/gossip"
)

// Report is the outcome of analyzing a concrete protocol on a network: the
// measured completion time, the delay-digraph statistics, and the paper's
// inequalities checked against the measurements. It is JSON-serializable;
// the golden tests pin its schema.
type Report struct {
	Network string `json:"network"`
	// Mode is the communication model name ("directed", "half-duplex",
	// "full-duplex").
	Mode string `json:"mode"`
	// Period is the systolic period of the protocol (0 for finite
	// non-systolic).
	Period int `json:"period"`
	// Measured is the gossip completion time in rounds.
	Measured int `json:"measured_rounds"`
	// LowerBound is the paper's bound for this network/mode/period.
	LowerBound Bound `json:"lower_bound"`
	// DelayVerts and DelayArcs are the sizes of the delay digraph built
	// over the executed rounds.
	DelayVerts int `json:"delay_verts"`
	DelayArcs  int `json:"delay_arcs"`
	// NormAtRoot is ‖M(λ₀)‖ at the root λ₀ of the general bound for the
	// protocol's period, and NormCap the Lemma 4.3 / 6.1 cap (= 1 at the
	// root by construction). NormAtRoot ≤ NormCap certifies the protocol
	// obeys the paper's structural inequality.
	NormAtRoot float64 `json:"norm_at_root"`
	NormCap    float64 `json:"norm_cap"`
	// TheoremRespected reports whether the measured time satisfies the
	// Theorem 4.1 inequality at λ₀ — it must always be true; a false value
	// would falsify the paper (or reveal an implementation bug).
	TheoremRespected bool `json:"theorem_respected"`
}

// Analyze validates p on the network, simulates it to completion (within
// the WithRoundBudget cap), builds the delay digraph of the executed
// prefix, computes the delay-matrix norm at the root of the protocol's own
// period bound, and checks Theorem 4.1 against the measurement. The context
// cancels the simulation between rounds. It is a convenience wrapper over
// NewEngine + Session.Analyze.
func Analyze(ctx context.Context, net *Network, p *Protocol, opts ...Option) (*Report, error) {
	sess, err := NewEngine(net, p, opts...)
	if err != nil {
		return nil, fmt.Errorf("systolic: analyze %s: %w", net.Name, err)
	}
	defer sess.Close()
	return sess.Analyze(ctx)
}

// Analyze runs the session to completion — resuming from wherever it is,
// restored rounds included — and builds the full report against the paper's
// bounds. It errors on broadcast sessions (use AnalyzeBroadcast). Since the
// certification refactor it is a view over Session.Certify: a
// budget-truncated run, which Certify reports as an inapplicable
// certificate, keeps surfacing here as ErrIncomplete.
func (s *Session) Analyze(ctx context.Context) (*Report, error) {
	if s.broadcast {
		return nil, fmt.Errorf("%w: analyze %s: broadcast sessions produce BroadcastReports", ErrWrongMode, s.net.Name)
	}
	cert, err := s.certifyGossip(ctx, "analyze", false)
	if err != nil {
		return nil, err
	}
	if !cert.Complete {
		return nil, fmt.Errorf("systolic: analyze %s: %w (budget %d)", s.net.Name, ErrIncomplete, s.budget)
	}
	return cert.Report(), nil
}

// rootFor returns the λ₀ at which the paper's norm cap for the protocol's
// period equals 1 (so ‖M(λ₀)‖ ≤ 1 by Lemma 4.3 / 6.1), or 0 when no such
// root applies (s = 2). It reads the general entry of Evaluate's
// coefficient table, so each (mode, period) root is solved once.
func rootFor(p *gossip.Protocol) float64 {
	if p.Systolic() && p.Period == 2 {
		return 0
	}
	return coefficientsFor(coeffKey{full: p.Mode == gossip.FullDuplex, period: requestPeriod(p)}).root
}

// requestPeriod is the Request.Period that bounds p: its period, or
// NonSystolic for a finite protocol.
func requestPeriod(p *gossip.Protocol) int {
	if !p.Systolic() {
		return NonSystolic
	}
	return p.Period
}

func theorem41Holds(n, measured int, lambda float64) bool {
	return measured >= bounds.Theorem41LowerBound(n, lambda)
}

// String renders the report.
func (r *Report) String() string {
	sys := "non-systolic"
	if r.Period > 0 {
		sys = fmt.Sprintf("%d-systolic", r.Period)
	}
	return fmt.Sprintf("%s [%s, %s]: measured %d rounds; lower bound %v; delay digraph %d verts / %d arcs; ‖M(λ₀)‖ = %.4f ≤ %.1f; Theorem 4.1 respected: %v",
		r.Network, r.Mode, sys, r.Measured, r.LowerBound, r.DelayVerts, r.DelayArcs, r.NormAtRoot, r.NormCap, r.TheoremRespected)
}
