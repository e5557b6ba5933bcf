package topology

import (
	"fmt"

	"repro/internal/graph"
)

// This file holds the arithmetic schedule generators: per-family proper
// edge colorings whose color classes are computed from the vertex id, the
// implicit counterpart of graph.GreedyEdgeColoring. A family is
// schedule-generator eligible when its canonical periodic protocols
// (dimension-order exchange on the hypercube, stride rounds on cycles and
// tori, cycle+cube rounds on CCC, level matchings on the butterfly) can be
// phrased as Partner(class, v) in O(1) — then the full-, half-duplex and
// interleaved periodic protocols become graph.RoundSources and the
// schedule compiler can execute them without materializing an arc slice.
// De Bruijn and Kautz graphs are not eligible: their matching partition is
// greedy (data-dependent), so their periodic protocols keep requiring the
// materialized digraph.

// ExchangeClasses is a proper edge coloring with arithmetic partner maps:
// the color classes partition the edge set, every class is a partial
// matching, and Partner computes v's mate in a class directly from v.
type ExchangeClasses interface {
	// N returns the number of vertices.
	N() int
	// Classes returns the number of color classes (>= 1).
	Classes() int
	// Partner returns v's exchange partner in class c, or -1 when v is
	// unmatched in that class. Partner is an involution:
	// Partner(c, Partner(c, v)) == v whenever v is matched.
	Partner(c, v int) int
	// PartnerChunk writes Partner(c, v) into out[v-lo] for each v in
	// [lo, hi) — the chunk fast path the schedule steps drive, one
	// interface call per graph.GenChunkVerts destinations. It must not
	// allocate and must be safe for concurrent use on disjoint chunks.
	PartnerChunk(c, lo, hi int, out []int32)
}

// Schedule wraps a family's exchange classes and derives the periodic
// protocols' round structures from them as graph.RoundSources. One
// Schedule is immutable and shared: the adapters it returns are stateless
// views safe for concurrent use.
type Schedule struct {
	cls ExchangeClasses
}

// NewSchedule wraps cls.
func NewSchedule(cls ExchangeClasses) *Schedule { return &Schedule{cls: cls} }

// N returns the vertex count.
func (s *Schedule) N() int { return s.cls.N() }

// Classes returns the number of exchange classes (the full-duplex period).
func (s *Schedule) Classes() int { return s.cls.Classes() }

// ExchangeClasses returns the underlying coloring.
func (s *Schedule) ExchangeClasses() ExchangeClasses { return s.cls }

// FullDuplex returns the periodic full-duplex protocol: round r exchanges
// along class r, period = Classes().
func (s *Schedule) FullDuplex() graph.RoundSource { return fullDuplexSched{s.cls} }

// HalfDuplex returns the periodic half-duplex protocol: each class is
// oriented low-id → high-id for one round, then the classes repeat
// reversed; period = 2·Classes().
func (s *Schedule) HalfDuplex() graph.RoundSource { return halfDuplexSched{s.cls} }

// Interleaved returns the interleaved half-duplex protocol: class c is
// oriented low-id → high-id in round 2c and reversed in round 2c+1;
// period = 2·Classes().
func (s *Schedule) Interleaved() graph.RoundSource { return interleavedSched{s.cls} }

// fullDuplexSched exchanges along one class per round.
type fullDuplexSched struct{ cls ExchangeClasses }

func (s fullDuplexSched) N() int      { return s.cls.N() }
func (s fullDuplexSched) Rounds() int { return s.cls.Classes() }

//gossip:hotpath
func (s fullDuplexSched) Sender(r, v int) int { return s.cls.Partner(r, v) }

//gossip:hotpath
func (s fullDuplexSched) SenderChunk(r, lo, hi int, out []int32) {
	s.cls.PartnerChunk(r, lo, hi, out)
}

// halfDuplexSched plays every class low→high, then every class high→low.
type halfDuplexSched struct{ cls ExchangeClasses }

func (s halfDuplexSched) N() int      { return s.cls.N() }
func (s halfDuplexSched) Rounds() int { return 2 * s.cls.Classes() }

//gossip:hotpath
func (s halfDuplexSched) Sender(r, v int) int {
	c, forward := r, true
	if k := s.cls.Classes(); r >= k {
		c, forward = r-k, false
	}
	return orient(s.cls.Partner(c, v), v, forward)
}

//gossip:hotpath
func (s halfDuplexSched) SenderChunk(r, lo, hi int, out []int32) {
	c, forward := r, true
	if k := s.cls.Classes(); r >= k {
		c, forward = r-k, false
	}
	s.cls.PartnerChunk(c, lo, hi, out)
	orientChunk(lo, hi, forward, out)
}

// interleavedSched alternates each class's two orientations back to back.
type interleavedSched struct{ cls ExchangeClasses }

func (s interleavedSched) N() int      { return s.cls.N() }
func (s interleavedSched) Rounds() int { return 2 * s.cls.Classes() }

//gossip:hotpath
func (s interleavedSched) Sender(r, v int) int {
	return orient(s.cls.Partner(r>>1, v), v, r&1 == 0)
}

//gossip:hotpath
func (s interleavedSched) SenderChunk(r, lo, hi int, out []int32) {
	s.cls.PartnerChunk(r>>1, lo, hi, out)
	orientChunk(lo, hi, r&1 == 0, out)
}

// orient keeps partner p as v's sender only in the active direction:
// forward rounds send low-id → high-id (v receives iff p < v), backward
// rounds the reverse.
//
//gossip:hotpath
func orient(p, v int, forward bool) int {
	if p < 0 {
		return -1
	}
	if forward == (p < v) {
		return p
	}
	return -1
}

// orientChunk applies orient in place over a PartnerChunk result.
//
//gossip:hotpath
func orientChunk(lo, hi int, forward bool, out []int32) {
	if forward {
		for i := range out[:hi-lo] {
			if int(out[i]) > lo+i {
				out[i] = -1
			}
		}
		return
	}
	for i := range out[:hi-lo] {
		if p := int(out[i]); p < lo+i { // p == -1 stays -1
			out[i] = -1
		}
	}
}

// cycleClassCount returns the chromatic index of C_n: 2 when n is even,
// 3 when odd (the wrap edge needs its own class).
func cycleClassCount(n int) int {
	if n%2 == 0 {
		return 2
	}
	return 3
}

// cyclePartner returns v's mate in class c of the canonical C_n edge
// coloring, or -1. Even n: class 0 pairs (2i, 2i+1), class 1 pairs
// (2i+1, 2i+2 mod n). Odd n: the same two stride classes stop short of the
// wrap edge (n-1, 0), which forms class 2 alone.
//
//gossip:hotpath
func cyclePartner(c, v, n int) int {
	if n%2 == 0 {
		if c == 0 {
			return v ^ 1
		}
		if v&1 == 1 {
			if v == n-1 {
				return 0
			}
			return v + 1
		}
		if v == 0 {
			return n - 1
		}
		return v - 1
	}
	switch c {
	case 0:
		if v == n-1 {
			return -1
		}
		return v ^ 1
	case 1:
		if v == 0 {
			return -1
		}
		if v&1 == 1 {
			return v + 1
		}
		return v - 1
	default:
		if v == 0 {
			return n - 1
		}
		if v == n-1 {
			return 0
		}
		return -1
	}
}

// HypercubeClasses is the dimension-order coloring of Q_D: class c
// exchanges along dimension c, Partner(c, v) = v XOR 2^c. Its FullDuplex
// schedule is exactly the paper's dimension-order broadcast protocol.
type HypercubeClasses struct {
	d, n int
}

// NewHypercubeClasses returns the Q_D coloring (D >= 1).
//
//gossip:allowpanic parameter guard: the systolic registry validates topology parameters before building
func NewHypercubeClasses(D int) *HypercubeClasses {
	if D < 1 {
		panic(fmt.Sprintf("topology: hypercube schedule needs D ≥ 1, got %d", D))
	}
	return &HypercubeClasses{d: D, n: checkGenSize("hypercube", 2, D, 1)}
}

// N returns 2^D.
func (h *HypercubeClasses) N() int { return h.n }

// Classes returns D.
func (h *HypercubeClasses) Classes() int { return h.d }

// Partner returns v XOR 2^c.
//
//gossip:hotpath
func (h *HypercubeClasses) Partner(c, v int) int { return v ^ (1 << uint(c)) }

// PartnerChunk is one xor per destination.
//
//gossip:hotpath
func (h *HypercubeClasses) PartnerChunk(c, lo, hi int, out []int32) {
	bit := int32(1) << uint(c)
	for i := range out[:hi-lo] {
		out[i] = int32(lo+i) ^ bit
	}
}

// CycleClasses is the canonical stride coloring of C_n (n >= 3): 2 classes
// when n is even, 3 when odd.
type CycleClasses struct {
	n int
}

// NewCycleClasses returns the C_n coloring.
//
//gossip:allowpanic parameter guard: the systolic registry validates topology parameters before building
func NewCycleClasses(n int) *CycleClasses {
	if n < 3 {
		panic(fmt.Sprintf("topology: cycle schedule needs n ≥ 3, got %d", n))
	}
	return &CycleClasses{n: n}
}

// N returns n.
func (c *CycleClasses) N() int { return c.n }

// Classes returns 2 (even n) or 3 (odd n).
func (c *CycleClasses) Classes() int { return cycleClassCount(c.n) }

// Partner returns the canonical C_n mate.
//
//gossip:hotpath
func (c *CycleClasses) Partner(cl, v int) int { return cyclePartner(cl, v, c.n) }

// PartnerChunk fills the canonical C_n mates for a destination range.
//
//gossip:hotpath
func (c *CycleClasses) PartnerChunk(cl, lo, hi int, out []int32) {
	for i := range out[:hi-lo] {
		out[i] = int32(cyclePartner(cl, lo+i, c.n))
	}
}

// TorusClasses colors the a×b torus row-cycles first, then column-cycles:
// classes [0, cyc(b)) pair neighbors within each row, classes
// [cyc(b), cyc(b)+cyc(a)) within each column, reusing the C_n coloring on
// the respective coordinate. Vertex (r, c) has id r·b + c, matching
// TorusGen.
type TorusClasses struct {
	a, b int
	n    int
}

// NewTorusClasses returns the a×b torus coloring (a, b >= 3).
//
//gossip:allowpanic parameter guard: the systolic registry validates topology parameters before building
func NewTorusClasses(a, b int) *TorusClasses {
	if a < 3 || b < 3 {
		panic(fmt.Sprintf("topology: torus schedule needs a,b ≥ 3, got %dx%d", a, b))
	}
	return &TorusClasses{a: a, b: b, n: checkGenSize("torus", b, 1, a)}
}

// N returns a·b.
func (t *TorusClasses) N() int { return t.n }

// Classes returns cyc(b) + cyc(a).
func (t *TorusClasses) Classes() int { return cycleClassCount(t.b) + cycleClassCount(t.a) }

// Partner pairs within the row for the first cyc(b) classes, within the
// column after.
//
//gossip:hotpath
func (t *TorusClasses) Partner(cl, v int) int {
	r, c := v/t.b, v%t.b
	kb := cycleClassCount(t.b)
	if cl < kb {
		pc := cyclePartner(cl, c, t.b)
		if pc < 0 {
			return -1
		}
		return r*t.b + pc
	}
	pr := cyclePartner(cl-kb, r, t.a)
	if pr < 0 {
		return -1
	}
	return pr*t.b + c
}

// PartnerChunk fills torus mates for a destination range.
//
//gossip:hotpath
func (t *TorusClasses) PartnerChunk(cl, lo, hi int, out []int32) {
	kb := cycleClassCount(t.b)
	if cl < kb {
		for v := lo; v < hi; v++ {
			r, c := v/t.b, v%t.b
			pc := cyclePartner(cl, c, t.b)
			if pc < 0 {
				out[v-lo] = -1
				continue
			}
			out[v-lo] = int32(r*t.b + pc)
		}
		return
	}
	cl -= kb
	for v := lo; v < hi; v++ {
		r, c := v/t.b, v%t.b
		pr := cyclePartner(cl, r, t.a)
		if pr < 0 {
			out[v-lo] = -1
			continue
		}
		out[v-lo] = int32(pr*t.b + c)
	}
}

// CCCClasses colors CCC(D) cycle-edges first, then cube-edges: classes
// [0, cyc(D)) pair (w, i) with (w, mate of i) along each length-D cycle,
// and the final class is the cube perfect matching (w, i) ↔ (w ⊕ 2^i, i).
// Vertex (w, i) has id i·2^D + w, matching CCCGen.
type CCCClasses struct {
	d    int // dimension
	n    int
	mask int // 2^D − 1
}

// NewCCCClasses returns the CCC(D) coloring (D >= 3).
//
//gossip:allowpanic parameter guard: the systolic registry validates topology parameters before building
func NewCCCClasses(D int) *CCCClasses {
	if D < 3 {
		panic(fmt.Sprintf("topology: CCC schedule needs D ≥ 3, got %d", D))
	}
	return &CCCClasses{d: D, n: checkGenSize("ccc", 2, D, D), mask: pow(2, D) - 1}
}

// N returns D·2^D.
func (c *CCCClasses) N() int { return c.n }

// Classes returns cyc(D) + 1.
func (c *CCCClasses) Classes() int { return cycleClassCount(c.d) + 1 }

// Partner pairs along the cycles for the first cyc(D) classes and across
// the cube matching for the last.
//
//gossip:hotpath
func (c *CCCClasses) Partner(cl, v int) int {
	w := v & c.mask
	i := v >> uint(c.d)
	if cl < cycleClassCount(c.d) {
		pi := cyclePartner(cl, i, c.d)
		if pi < 0 {
			return -1
		}
		return pi<<uint(c.d) | w
	}
	return i<<uint(c.d) | (w ^ (1 << uint(i)))
}

// PartnerChunk fills CCC mates for a destination range.
//
//gossip:hotpath
func (c *CCCClasses) PartnerChunk(cl, lo, hi int, out []int32) {
	D := uint(c.d)
	if cl < cycleClassCount(c.d) {
		for v := lo; v < hi; v++ {
			w := v & c.mask
			pi := cyclePartner(cl, v>>D, c.d)
			if pi < 0 {
				out[v-lo] = -1
				continue
			}
			out[v-lo] = int32(pi<<D | w)
		}
		return
	}
	for v := lo; v < hi; v++ {
		w := v & c.mask
		i := v >> D
		out[v-lo] = int32(i<<D | (w ^ (1 << uint(i))))
	}
}

// ButterflyClasses colors BF(d,D) by level pair and digit rotation: class
// (l, m) — index (l−1)·d + m, l ∈ 1..D, m ∈ 0..d−1 — matches each level
// l−1 vertex whose digit l−1 is j with the level-l vertex whose digit l−1
// is (j+m) mod d. The d rotations decompose every K_{d,d} between adjacent
// levels into perfect matchings. Vertex (x, l) has id l·d^D + value(x),
// matching ButterflyGen.
type ButterflyClasses struct {
	d, dim int // degree, diameter D
	dD     int // d^D
	n      int
	powd   []int
}

// NewButterflyClasses returns the BF(d,D) coloring (d >= 2, D >= 1).
//
//gossip:allowpanic parameter guard: the systolic registry validates topology parameters before building
func NewButterflyClasses(d, D int) *ButterflyClasses {
	if d < 2 || D < 1 {
		panic(fmt.Sprintf("topology: BF schedule needs d ≥ 2, D ≥ 1, got d=%d D=%d", d, D))
	}
	b := &ButterflyClasses{d: d, dim: D, dD: pow(d, D), n: checkGenSize("butterfly", d, D, D+1)}
	b.powd = make([]int, D+1)
	for i := 0; i <= D; i++ {
		b.powd[i] = pow(d, i)
	}
	return b
}

// N returns (D+1)·d^D.
func (b *ButterflyClasses) N() int { return b.n }

// Classes returns D·d.
func (b *ButterflyClasses) Classes() int { return b.dim * b.d }

// Partner rotates digit l−1 across the level pair (l−1, l).
//
//gossip:hotpath
func (b *ButterflyClasses) Partner(cl, v int) int {
	l, m := cl/b.d+1, cl%b.d
	lv, x := v/b.dD, v%b.dD
	pd := b.powd[l-1]
	j := (x / pd) % b.d
	switch lv {
	case l - 1:
		jp := j + m
		if jp >= b.d {
			jp -= b.d
		}
		return l*b.dD + x + (jp-j)*pd
	case l:
		jp := j - m
		if jp < 0 {
			jp += b.d
		}
		return (l-1)*b.dD + x + (jp-j)*pd
	}
	return -1
}

// PartnerChunk fills butterfly mates for a destination range.
//
//gossip:hotpath
func (b *ButterflyClasses) PartnerChunk(cl, lo, hi int, out []int32) {
	for v := lo; v < hi; v++ {
		out[v-lo] = int32(b.Partner(cl, v))
	}
}

// CycleTwoPhase is the cycle2 protocol as a RoundSource: the directed
// two-phase systolic cycle protocol (period 2, even n ≥ 4) in which round
// r activates the arcs i → i+1 mod n for even-parity i when r = 0 and
// odd-parity i when r = 1, matching protocols.CycleTwoPhase.
type CycleTwoPhase struct {
	n int
}

// NewCycleTwoPhase returns the directed two-phase C_n schedule.
//
//gossip:allowpanic parameter guard: the systolic registry validates topology parameters before building
func NewCycleTwoPhase(n int) *CycleTwoPhase {
	if n < 4 || n%2 != 0 {
		panic(fmt.Sprintf("topology: cycle2 schedule needs even n ≥ 4, got %d", n))
	}
	return &CycleTwoPhase{n: n}
}

// N returns n.
func (c *CycleTwoPhase) N() int { return c.n }

// Rounds returns 2.
func (c *CycleTwoPhase) Rounds() int { return 2 }

// Sender returns v's ring predecessor when its parity matches the round.
//
//gossip:hotpath
func (c *CycleTwoPhase) Sender(r, v int) int {
	u := v - 1
	if u < 0 {
		u = c.n - 1
	}
	if u&1 == r {
		return u
	}
	return -1
}

// SenderChunk fills ring predecessors of matching parity.
//
//gossip:hotpath
func (c *CycleTwoPhase) SenderChunk(r, lo, hi int, out []int32) {
	for v := lo; v < hi; v++ {
		u := v - 1
		if u < 0 {
			u = c.n - 1
		}
		if u&1 == r {
			out[v-lo] = int32(u)
		} else {
			out[v-lo] = -1
		}
	}
}

// Interface conformance.
var (
	_ ExchangeClasses = (*HypercubeClasses)(nil)
	_ ExchangeClasses = (*CycleClasses)(nil)
	_ ExchangeClasses = (*TorusClasses)(nil)
	_ ExchangeClasses = (*CCCClasses)(nil)
	_ ExchangeClasses = (*ButterflyClasses)(nil)

	_ graph.RoundSource = fullDuplexSched{}
	_ graph.RoundSource = halfDuplexSched{}
	_ graph.RoundSource = interleavedSched{}
	_ graph.RoundSource = (*CycleTwoPhase)(nil)
)
