package systolic

import (
	"fmt"

	"repro/internal/gossip"
	"repro/internal/graph"
)

// Program is a protocol compiled onto a concrete network: the validated
// schedule lowered once into the flat IR every execution layer shares
// (serial state, sharded state, certificates — see repro/internal/gossip).
// Compilation subsumes validation, so a session built from a Program skips
// both; serving layers cache Programs across requests (keyed by
// RequestKey-style identities) to make a result-cache miss skip the whole
// build→validate→compile pipeline.
//
// A generator-backed protocol (Protocol.Gen, the form NewProtocol returns on
// implicit networks) compiles to a generator program instead: rounds are
// recomputed from the vertex id at execution time, never materialized, and
// the session runs the packed broadcast frontier from WithSource. On a
// materialized network the same protocol lowers its explicit rounds to the
// CSR frontier program — the differential twin the generator path is pinned
// byte-identical to (same fingerprint, rounds, reports and checkpoints).
//
// A Program is immutable and safe to share: any number of concurrent
// sessions may execute one compiled program.
type Program struct {
	net   *Network
	proto *Protocol
	prog  *gossip.Program    // CSR schedule IR; nil for generator-executed programs
	gprog *gossip.GenProgram // generator schedule IR; non-nil streams rounds
	// frontier marks broadcast-frontier semantics: the session simulates
	// single-source dissemination (one bit per vertex) instead of gossip.
	// Always true when gprog is non-nil; also true for the CSR lowering of a
	// generator-backed protocol on a materialized network.
	frontier bool
}

// CompileProtocol validates p on the network and lowers it into the shared
// schedule IR. The resulting Program retains the network; a built digraph
// is read-only, so the program can back concurrent sessions.
//
// A generator-backed p (p.Gen set, no explicit rounds) is lowered onto the
// generator: on an implicit network the program streams every round, on a
// materialized one it compiles the materialized rounds to the CSR frontier
// program. Either way the session is a broadcast session (see WithSource).
func CompileProtocol(net *Network, p *Protocol) (*Program, error) {
	if g := p.Gen; g != nil && p.Len() == 0 {
		if g.N() != net.N() {
			return nil, fmt.Errorf("systolic: compile on %s: %w: generator schedule is for n=%d, network has n=%d",
				net.Name, ErrBadParam, g.N(), net.N())
		}
		if p.Period != g.Period() {
			return nil, fmt.Errorf("systolic: compile on %s: %w: generator-backed protocol declares period %d, schedule has %d",
				net.Name, ErrBadParam, p.Period, g.Period())
		}
		if net.Implicit() {
			return &Program{net: net, proto: p, gprog: g, frontier: true}, nil
		}
		// Materialized network: validate the explicit rounds and lower them
		// to the 1-item frontier shape — the CSR twin of the generator path.
		mp := g.Materialize()
		if err := mp.Validate(net.G); err != nil {
			return nil, err
		}
		prog, err := gossip.Compile(mp, net.G.N(), 1)
		if err != nil {
			return nil, fmt.Errorf("systolic: compile on %s: %w", net.Name, err)
		}
		return &Program{net: net, proto: p, prog: prog, frontier: true}, nil
	}
	if err := net.needG("compile on"); err != nil {
		return nil, err
	}
	if err := p.Validate(net.G); err != nil {
		return nil, err
	}
	prog, err := gossip.Compile(p, net.G.N(), net.G.N())
	if err != nil {
		return nil, fmt.Errorf("systolic: compile on %s: %w", net.Name, err)
	}
	return &Program{net: net, proto: p, prog: prog}, nil
}

// Network returns the network the program was compiled on.
func (pr *Program) Network() *Network { return pr.net }

// Protocol returns the source protocol.
func (pr *Program) Protocol() *Protocol { return pr.proto }

// GenProgram returns the generator schedule IR when the program streams its
// rounds, nil when it executes a materialized CSR schedule.
func (pr *Program) GenProgram() *gossip.GenProgram { return pr.gprog }

// Broadcast reports whether sessions built from this program simulate
// single-source broadcast on the packed frontier (true for every program
// compiled from a generator-backed protocol) rather than gossip.
func (pr *Program) Broadcast() bool { return pr.frontier }

// Fingerprint returns the FNV-1a schedule fingerprint — the identity
// recorded in checkpoints and used by program caches. Generator programs
// hash the streamed rounds to the same value their materialized form would.
func (pr *Program) Fingerprint() string {
	if pr.gprog != nil {
		return pr.gprog.Fingerprint()
	}
	return pr.prog.Fingerprint()
}

// genSessionFootprint estimates the resident bytes a generator-program
// session allocates: the frontier bitset plus one chunk of receive words,
// a bit per chunk vertex.
// It is what WithMaxMemory meters on the streaming path — deliberately
// excluding the O(arcs) cost the generator exists to avoid.
func genSessionFootprint(n int) int64 {
	words := int64((n + 63) / 64)
	return 8*words + int64(graph.GenChunkVerts)/8
}

// NewEngineFromProgram returns a fresh session at round zero executing an
// already compiled program, skipping re-validation and re-compilation. It
// is the entry point for serving layers that cache Programs; NewEngine is
// the compile-per-session convenience over it.
//
// A frontier program (a generator-backed protocol, or its CSR twin on a
// materialized network) yields a broadcast session disseminating from
// WithSource (default 0) — one bit per vertex, so a 2^24-vertex hypercube
// simulates in a few MiB of state. On the streaming path WithMaxMemory caps
// the frontier words allocated (ErrMemoryBudget when they exceed it).
func NewEngineFromProgram(pr *Program, opts ...Option) (*Session, error) {
	cfg := newConfig(opts)
	s := &Session{net: pr.net, proto: pr.proto, prog: pr.prog, cfg: cfg}
	s.initBudget()
	n := pr.net.N()
	if pr.frontier {
		src := cfg.source
		if src < 0 || src >= n {
			return nil, fmt.Errorf("%w: broadcast source %d outside [0, %d)", ErrBadParam, src, n)
		}
		if pr.gprog != nil {
			if cfg.maxMemory > 0 {
				if need := genSessionFootprint(n); need > cfg.maxMemory {
					return nil, fmt.Errorf("systolic: session on %s: %w (estimated working set ~%d bytes, cap %d)",
						pr.net.Name, ErrMemoryBudget, need, cfg.maxMemory)
				}
			}
			s.grun = gossip.NewGenRun(pr.gprog)
		}
		s.broadcast = true
		s.source = src
		s.fr = gossip.NewFrontierState(n, src)
		s.target = n
		s.done = s.complete()
		return s, nil
	}
	s.st = gossip.NewState(n)
	s.target = n * n
	if n >= DefaultShardThreshold {
		s.st.SetShards(cfg.workers)
	}
	s.done = s.complete()
	return s, nil
}
