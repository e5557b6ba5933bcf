// Package gossip models the communication protocols of the paper
// (Definitions 3.1 and 3.2) and provides a bitset-based simulation engine
// that executes a protocol round by round, tracking which items each
// processor knows, and reports gossip/broadcast completion times.
//
// The engine is a compile-then-execute pipeline. A Protocol is a plain
// schedule — arc slices per round; Compile lowers it once into a Program,
// the flat schedule IR every execution layer shares: precomputed word
// offsets and fused full-duplex exchanges. Compile admits only the rounds
// Validate does — every vertex an endpoint of at most one arc, or of
// exactly one opposite pair — so no two ops of a round share a vertex and
// every op merges live state in place. State.StepProgram (serial, sharded
// or fault-masked, all one merge loop), FrontierState.StepProgram and
// Program.CompletionCertificate execute the same IR, byte-identically to
// interpreting the raw arc slices (the arc-slice interpreters live in the
// tests as oracles). Simulate, SimulateBroadcast and CompletionCertificate
// compile on entry, so one-shot callers get the compiled hot path for
// free.
package gossip

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"

	"repro/internal/graph"
)

// Mode selects the communication model of Section 3.
type Mode int

const (
	// Directed: the network is an arbitrary digraph, each round is a
	// matching of arcs (no two active arcs share an endpoint).
	Directed Mode = iota
	// HalfDuplex: the network is a symmetric digraph; rounds are matchings
	// of arcs and messages travel one way per active link.
	HalfDuplex
	// FullDuplex: active arcs come in opposite pairs; any two active arcs
	// either share no endpoint or are opposite.
	FullDuplex
)

// String returns the conventional name of the mode.
func (m Mode) String() string {
	switch m {
	case Directed:
		return "directed"
	case HalfDuplex:
		return "half-duplex"
	case FullDuplex:
		return "full-duplex"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Protocol is a sequence of communication rounds on a fixed digraph
// (Definition 3.1). Period > 0 declares the protocol s-systolic
// (Definition 3.2): round i activates Rounds[i mod Period]; the protocol may
// then be run for any number of steps. Period == 0 means the protocol is the
// explicit finite sequence Rounds.
type Protocol struct {
	Rounds [][]graph.Arc
	Period int
	Mode   Mode

	// Gen, when non-nil with no explicit Rounds, backs the protocol with a
	// generator-compiled schedule: rounds are computed from the vertex id
	// at execution time instead of stored (Period then equals
	// Gen.Period()). Gen.Materialize() recovers the explicit form;
	// Fingerprint is identical either way.
	Gen *GenProgram
}

// NewSystolic returns an s-systolic protocol cycling through rounds.
func NewSystolic(rounds [][]graph.Arc, mode Mode) *Protocol {
	return &Protocol{Rounds: rounds, Period: len(rounds), Mode: mode}
}

// NewFinite returns a non-systolic protocol consisting of exactly rounds.
func NewFinite(rounds [][]graph.Arc, mode Mode) *Protocol {
	return &Protocol{Rounds: rounds, Mode: mode}
}

// Systolic reports whether p repeats with a finite period.
func (p *Protocol) Systolic() bool { return p.Period > 0 }

// Round returns the arcs active at 0-based round i, applying the periodic
// repetition when the protocol is systolic. Out-of-schedule rounds — a
// negative i, or an i past the end of a finite protocol — are empty (nil),
// consistent with the engine's ErrBadParam discipline of never panicking on
// caller-supplied values.
func (p *Protocol) Round(i int) []graph.Arc {
	if i < 0 {
		return nil
	}
	if p.Period > 0 {
		return p.Rounds[i%p.Period]
	}
	if i >= len(p.Rounds) {
		return nil
	}
	return p.Rounds[i]
}

// Fingerprint hashes the schedule — mode, period and the arcs of every
// explicit round — with FNV-1a into the 16-hex-digit identity that ties
// checkpoints to their protocol and keys compiled-program caches.
func (p *Protocol) Fingerprint() string {
	if p.Gen != nil && len(p.Rounds) == 0 {
		return p.Gen.Fingerprint()
	}
	h := fnv.New64a()
	var word [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(word[:], uint64(v))
		h.Write(word[:])
	}
	put(int(p.Mode))
	put(p.Period)
	put(len(p.Rounds))
	for _, round := range p.Rounds {
		put(len(round))
		for _, a := range round {
			put(a.From)
			put(a.To)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Len returns the number of explicit rounds (one period for a systolic
// protocol).
func (p *Protocol) Len() int { return len(p.Rounds) }

// Validate checks the protocol against the digraph and its mode:
// every arc exists in g, every round is a matching, and in full-duplex mode
// every round is a set of opposite arc pairs. In half- and full-duplex modes
// g must be symmetric.
func (p *Protocol) Validate(g *graph.Digraph) error {
	if p.Mode != Directed && !g.IsSymmetric() {
		return fmt.Errorf("gossip: %v mode requires a symmetric digraph", p.Mode)
	}
	for i, round := range p.Rounds {
		if !graph.ArcsInGraph(g, round) {
			return fmt.Errorf("gossip: round %d activates an arc not in the graph", i)
		}
		if p.Mode == FullDuplex {
			// Opposite pairs share endpoints by design; the full-duplex
			// constraint (pairs opposite, no endpoint shared across pairs)
			// replaces the plain matching test.
			if !graph.IsFullDuplexRound(round) {
				return fmt.Errorf("gossip: round %d violates the full-duplex constraint", i)
			}
		} else if !graph.IsMatching(round) {
			return fmt.Errorf("gossip: round %d is not a matching", i)
		}
	}
	return nil
}

// SystolicCheck verifies that an explicit finite round sequence is s-systolic
// per Definition 3.2 (A_i = A_{i+s} for all applicable i). Rounds are
// compared as sets: each round is sorted once up front, so the pairwise
// comparisons are allocation-free slice walks instead of a map per pair.
func SystolicCheck(rounds [][]graph.Arc, s int) bool {
	if s <= 0 || s > len(rounds) {
		return false
	}
	sorted := make([][]graph.Arc, len(rounds))
	for i, round := range rounds {
		sorted[i] = sortedRound(round)
	}
	for i := 0; i+s < len(rounds); i++ {
		if !sameSortedArcs(sorted[i], sorted[i+s]) {
			return false
		}
	}
	return true
}

// sameArcSet is the one-shot variant of the comparison for callers holding
// unsorted rounds (tests, mostly): both rounds are copied, sorted and
// compared.
func sameArcSet(a, b []graph.Arc) bool {
	return sameSortedArcs(sortedRound(a), sortedRound(b))
}

func sortedRound(round []graph.Arc) []graph.Arc {
	c := append([]graph.Arc(nil), round...)
	sort.Slice(c, func(x, y int) bool {
		if c[x].From != c[y].From {
			return c[x].From < c[y].From
		}
		return c[x].To < c[y].To
	})
	return c
}

// sameSortedArcs compares two sorted rounds as sets; a round containing a
// duplicate arc is never equal to anything (a duplicate indicates a
// malformed schedule).
func sameSortedArcs(a, b []graph.Arc) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if i > 0 && a[i] == a[i-1] {
			return false
		}
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
