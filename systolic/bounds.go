package systolic

import (
	"fmt"
	"sync"

	"repro/internal/bounds"
	"repro/internal/gossip"
)

// Request selects which lower bound to evaluate.
type Request struct {
	// Mode is the communication model; Directed and HalfDuplex share the
	// same bounds (Sections 4–5), FullDuplex uses Section 6.
	Mode Mode `json:"mode"`
	// Period is the systolic period s ≥ 2, or NonSystolic for the s→∞
	// corollaries.
	Period int `json:"period"`
}

// NonSystolic requests the s→∞ bounds.
const NonSystolic = bounds.SInfinity

// Bound is an evaluated lower bound on gossiping time. It is
// JSON-serializable; the golden tests pin its schema.
type Bound struct {
	// Coefficient multiplies log₂(n): g(G) ≥ Coefficient·log₂(n) − o(log n).
	Coefficient float64 `json:"coefficient"`
	// Lambda is the λ value realizing the bound (the root for the general
	// bound, the maximizer for separator bounds).
	Lambda float64 `json:"lambda"`
	// Rounds is an explicit finite-n certified round bound: the Theorem 4.1
	// value at the general-bound root for this mode and period (plus the
	// n−1 value for s=2). The asymptotic Coefficient may be larger
	// (separator and diameter refinements carry −o(log n) slack that is
	// not certified at finite n, so it is never folded into Rounds).
	Rounds int `json:"rounds"`
	// Source names the active bound: "general" (Cor. 4.4 / §6),
	// "separator" (Thm. 5.1), "diameter", or the s=2 arguments.
	Source string `json:"source"`
}

// GeneralBound returns the paper's general lower-bound coefficient e(s) and
// the root λ₀ realizing it for the given mode and period (Fig. 4 for
// directed/half-duplex, the Section 6 analogue for full-duplex). Use
// NonSystolic for the s→∞ corollaries.
func GeneralBound(mode Mode, period int) (e, lambda float64) {
	c := coefficientsFor(coeffKey{full: mode == gossip.FullDuplex, period: period})
	return c.best.Coefficient, c.root
}

// Evaluate returns the best lower bound the paper provides for the network
// under the request. For networks in the Lemma 3.1 families the separator
// refinement is applied automatically; for all others the general bound is
// returned. Period 2 in the directed/half-duplex modes returns the explicit
// n−1 bound of the Section 4 remark. Implicit networks are evaluated from
// n and the family classification alone — the directed-diameter refinement
// needs explicit adjacency and is skipped (it only applies to tiny
// instances anyway).
//
// The coefficient, its λ and its Source depend only on the mode, the period
// and, for a Lemma 3.1 family, the family and degree parameter; they are
// computed once per process and kept in a bounded table shared by every
// caller, so a repeated key costs one map lookup. Rounds depends on the
// instance (n and the diameter) and is computed on every call.
func Evaluate(net *Network, req Request) Bound {
	n := net.N()
	if req.Period == 2 {
		if req.Mode == gossip.FullDuplex {
			r := bounds.STwoFullDuplexLowerBound(n)
			if lg := ceilLog2(n); lg > r {
				r = lg
			}
			if n <= 4096 && net.G != nil {
				if diam := net.G.Diameter(); diam > r {
					r = diam
				}
			}
			return Bound{Rounds: r, Source: "s=2 sqrt(n) argument"}
		}
		return Bound{Rounds: bounds.STwoLowerBound(n), Source: "s=2 cycle argument"}
	}
	k := coeffKey{full: req.Mode == gossip.FullDuplex, period: req.Period}
	if net.FamilyKnown {
		k.familyKnown, k.family, k.degree = true, net.Family, net.DegreeParam
	}
	c := coefficientsFor(k)
	best := c.best
	// Rounds is certified at finite n by the strongest of three
	// unconditional facts: Theorem 4.1 at the general root (which holds
	// regardless of which refinement gave the best coefficient), the
	// information bound ⌈log₂ n⌉ (knowledge at most doubles per round in
	// every mode), and the directed diameter (an item crosses one arc per
	// round). The diameter is only computed for moderate instance sizes.
	best.Rounds = bounds.Theorem41LowerBound(n, c.root)
	if lg := ceilLog2(n); lg > best.Rounds {
		best.Rounds = lg
	}
	if n <= 4096 && net.G != nil {
		if diam := net.G.Diameter(); diam > best.Rounds {
			best.Rounds = diam
		}
	}
	return best
}

func ceilLog2(n int) int {
	lg := 0
	for m := 1; m < n; m <<= 1 {
		lg++
	}
	return lg
}

// coeffKey names one entry of the coefficient table. Directed and
// half-duplex share their bounds (Sections 4–5), so the mode reduces to
// full. A general-only key leaves the family fields zero.
type coeffKey struct {
	full        bool
	period      int
	familyKnown bool
	family      Family
	degree      int
}

// coeffs is one table entry: the general root λ₀ (Theorem 4.1's certified
// rounds and the norm cap of Lemma 4.3 / 6.1 are taken there) and the best
// coefficient with its λ and Source — the general bound (Cor. 4.4 / §6),
// the separator bound (Thm. 5.1) at its maximizer λ*, or the diameter
// coefficient, whichever is largest. Rounds is left zero.
type coeffs struct {
	root float64
	best Bound
}

// coeffTableCap bounds the coefficient table. The paper's key space
// (families × degrees × modes × periods) is a few hundred entries; keys
// past the cap are computed on every call and not stored, so no request
// stream can grow the table without limit.
const coeffTableCap = 1024

// coeffTable memoizes the closed-form part of Evaluate. Evaluate runs
// concurrently (gossipd handlers, Sweep and scenario workers), so the map
// is guarded by a read-write mutex.
var coeffTable = struct {
	mu sync.RWMutex
	m  map[coeffKey]coeffs
}{m: make(map[coeffKey]coeffs)}

// lookupCoeffs is the table's hit path.
//
//gossip:hotpath
func lookupCoeffs(k coeffKey) (coeffs, bool) {
	coeffTable.mu.RLock()
	c, ok := coeffTable.m[k]
	coeffTable.mu.RUnlock()
	return c, ok
}

// coefficientsFor returns the table entry for k, solving and storing it on
// first use. Two callers missing the same key at once both solve it; the
// solve is deterministic, so either result is the same entry.
func coefficientsFor(k coeffKey) coeffs {
	if c, ok := lookupCoeffs(k); ok {
		return c
	}
	c := solveCoeffs(k)
	coeffTable.mu.Lock()
	if len(coeffTable.m) < coeffTableCap {
		coeffTable.m[k] = c
	}
	coeffTable.mu.Unlock()
	return c
}

// solveCoeffs computes one entry from the norm bound w(λ) of the mode and
// period: λ₀ is the unit root of w and e = 1/log₂(1/λ₀) (Cor. 4.4); a
// family key adds the Theorem 5.1 optimization over w with the Lemma 3.1
// separator and the family's diameter coefficient, on top of the general
// entry for the same mode and period.
//
//gossip:allowpanic domain guard: the closed-form bounds exist for s ≥ 3 and s → ∞ only; Evaluate answers s = 2 before the table
func solveCoeffs(k coeffKey) coeffs {
	if k.period != NonSystolic && k.period < 3 {
		panic(fmt.Sprintf("systolic: closed-form bounds need period ≥ 3 or NonSystolic, got %d", k.period))
	}
	w := normBound(k.full, k.period)
	if !k.familyKnown {
		root := bounds.SolveUnitRoot(w)
		return coeffs{root: root, best: Bound{Coefficient: bounds.E(root), Lambda: root, Source: "general"}}
	}
	c := coefficientsFor(coeffKey{full: k.full, period: k.period})
	spec, lamS := bounds.SeparatorBound(bounds.LemmaSeparator(k.family, k.degree), w)
	if spec > c.best.Coefficient {
		c.best = Bound{Coefficient: spec, Lambda: lamS, Source: "separator"}
	}
	if diam := bounds.DiameterCoefficient(k.family, k.degree); diam > c.best.Coefficient {
		c.best = Bound{Coefficient: diam, Lambda: 0, Source: "diameter"}
	}
	return c
}

// normBound returns the paper's bound w(λ) on ‖M(λ)‖ for the mode and
// period: Lemma 4.3 and its s→∞ limit for directed/half-duplex, Lemma 6.1
// and its limit for full-duplex.
func normBound(full bool, period int) func(float64) float64 {
	switch {
	case full && period == NonSystolic:
		return bounds.WFullDuplexInfinity
	case full:
		return func(l float64) float64 { return bounds.WFullDuplex(period, l) }
	case period == NonSystolic:
		return bounds.WHalfDuplexInfinity
	default:
		return func(l float64) float64 { return bounds.WHalfDuplex(period, l) }
	}
}

// String renders the bound for human consumption.
func (b Bound) String() string {
	if b.Coefficient == 0 {
		return fmt.Sprintf("≥ %d rounds (%s)", b.Rounds, b.Source)
	}
	return fmt.Sprintf("≥ %.4f·log₂(n) − o(log n) [≥ %d rounds here] (%s, λ=%.4f)",
		b.Coefficient, b.Rounds, b.Source, b.Lambda)
}
