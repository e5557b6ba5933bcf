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
//
// Each coloring comes in two bulk forms. PartnerChunk lists partner ids,
// which materializing and fingerprinting a schedule need. ExchangeWords is
// what a schedule step runs: the receive set of a class, one bit per
// vertex, 64 destinations per word. The hypercube computes it with word
// lookups and in-word bit swaps; the cycle, torus, CCC, butterfly and
// CycleTwoPhase fill partner ids and pack them through packWords, the one
// per-vertex receive loop left.

// Orientation selects which end of each class edge receives in a round.
type Orientation uint8

const (
	// Exchange is full duplex: both ends hear each other.
	Exchange Orientation = iota
	// LowToHigh lets v hear its partner p only when p < v.
	LowToHigh
	// HighToLow lets v hear its partner p only when p > v.
	HighToLow
)

// keeps reports whether a vertex hears the partner at offset k = p − v.
func (o Orientation) keeps(k int) bool {
	return o == Exchange || (o == LowToHigh) == (k < 0)
}

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
	// [lo, hi), one interface call per chunk of destinations. It must not
	// allocate and must be safe for concurrent use on disjoint chunks.
	PartnerChunk(c, lo, hi int, out []int32)
	// ExchangeWords is the word form of class c under orientation o: it
	// writes into out[w-wlo], for each word w in [wlo, whi), the vertices
	// v of w whose partner p is in informed and o.keeps(p − v), following
	// graph.RoundSource.ReceiveWords for informed, out and the bits at or
	// above N(). The same allocation and concurrency rules apply.
	ExchangeWords(c int, o Orientation, wlo, whi int, informed, out []uint64)
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

//gossip:hotpath
func (s fullDuplexSched) ReceiveWords(r, wlo, whi int, informed, out []uint64) {
	s.cls.ExchangeWords(r, Exchange, wlo, whi, informed, out)
}

// halfDuplexSched plays every class low→high, then every class high→low.
type halfDuplexSched struct{ cls ExchangeClasses }

func (s halfDuplexSched) N() int      { return s.cls.N() }
func (s halfDuplexSched) Rounds() int { return 2 * s.cls.Classes() }

// class returns round r's class and orientation.
func (s halfDuplexSched) class(r int) (int, Orientation) {
	if k := s.cls.Classes(); r >= k {
		return r - k, HighToLow
	}
	return r, LowToHigh
}

//gossip:hotpath
func (s halfDuplexSched) Sender(r, v int) int {
	c, o := s.class(r)
	return orient(s.cls.Partner(c, v), v, o)
}

//gossip:hotpath
func (s halfDuplexSched) SenderChunk(r, lo, hi int, out []int32) {
	c, o := s.class(r)
	s.cls.PartnerChunk(c, lo, hi, out)
	orientChunk(lo, hi, o, out)
}

//gossip:hotpath
func (s halfDuplexSched) ReceiveWords(r, wlo, whi int, informed, out []uint64) {
	c, o := s.class(r)
	s.cls.ExchangeWords(c, o, wlo, whi, informed, out)
}

// interleavedSched alternates each class's two orientations back to back.
type interleavedSched struct{ cls ExchangeClasses }

func (s interleavedSched) N() int      { return s.cls.N() }
func (s interleavedSched) Rounds() int { return 2 * s.cls.Classes() }

// class returns round r's class and orientation.
func (s interleavedSched) class(r int) (int, Orientation) {
	if r&1 == 0 {
		return r >> 1, LowToHigh
	}
	return r >> 1, HighToLow
}

//gossip:hotpath
func (s interleavedSched) Sender(r, v int) int {
	c, o := s.class(r)
	return orient(s.cls.Partner(c, v), v, o)
}

//gossip:hotpath
func (s interleavedSched) SenderChunk(r, lo, hi int, out []int32) {
	c, o := s.class(r)
	s.cls.PartnerChunk(c, lo, hi, out)
	orientChunk(lo, hi, o, out)
}

//gossip:hotpath
func (s interleavedSched) ReceiveWords(r, wlo, whi int, informed, out []uint64) {
	c, o := s.class(r)
	s.cls.ExchangeWords(c, o, wlo, whi, informed, out)
}

// orient keeps partner p as v's sender only on the side o selects.
//
//gossip:hotpath
func orient(p, v int, o Orientation) int {
	if p >= 0 && o.keeps(p-v) {
		return p
	}
	return -1
}

// orientChunk applies orient in place over a PartnerChunk result.
//
//gossip:hotpath
func orientChunk(lo, hi int, o Orientation, out []int32) {
	for i, p := range out[:hi-lo] {
		out[i] = int32(orient(int(p), lo+i, o))
	}
}

// senderWord packs one receive word from the sender ids of destinations
// v0, v0+1, …, v0+len(ids)−1 (partner ids, filtered by o): bit j is set
// iff ids[j] >= 0, informed has ids[j] and o keeps it.
//
//gossip:hotpath
func senderWord(ids []int32, v0 int, o Orientation, informed []uint64) uint64 {
	// Branch-free: whether a sender is informed is data, not a pattern a
	// branch predictor learns. below marks the destinations whose sender
	// lies below them, which o selects from at the end.
	var x, below uint64
	for j, p := range ids {
		neg := p >> 31        // -1 when there is no sender, else 0
		q := uint32(p &^ neg) // sender id, 0 when there is none
		x |= informed[q>>6] >> (q & 63) & uint64(neg+1) << uint(j)
		below |= uint64(int64(p)-int64(v0+j)) >> 63 << uint(j)
	}
	switch o {
	case LowToHigh:
		return x & below
	case HighToLow:
		return x &^ below
	}
	return x
}

// idChunker is a family without word arithmetic as packWords sees it:
// ids64 returns the sender ids (partner ids, before orientation) of class
// or round c for the destinations [lo, hi) of one word, in ids[:hi-lo].
// The ids come back by value because a buffer passed through the
// interface would escape and allocate.
type idChunker interface {
	ids64(c, lo, hi int) [64]int32
}

// packWords is the word form built from sender ids: for each word w in
// [wlo, whi), it packs the ids src gives for the destinations of w within
// [vlo, vhi) through senderWord. Destinations outside [vlo, vhi) — at
// least those at or above N() — receive nothing.
//
//gossip:hotpath
func packWords(src idChunker, c int, o Orientation, vlo, vhi, wlo, whi int, informed, out []uint64) {
	for i := range out[:whi-wlo] {
		base := (wlo + i) << 6
		lo, hi := max(base, vlo), min(base+64, vhi)
		if lo >= hi {
			out[i] = 0
			continue
		}
		ids := src.ids64(c, lo, hi)
		out[i] = senderWord(ids[:hi-lo], lo, o, informed) << uint(lo-base)
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

// hypercubeHigh[c] has bit j set iff bit c of j is set: the vertices of a
// word whose dimension-c partner (c < 6) lies below them in the same word.
var hypercubeHigh = [6]uint64{
	0xaaaaaaaaaaaaaaaa, 0xcccccccccccccccc, 0xf0f0f0f0f0f0f0f0,
	0xff00ff00ff00ff00, 0xffff0000ffff0000, 0xffffffff00000000,
}

// ExchangeWords flips dimension c a word at a time. For c >= 6 the partner
// of word w is word w XOR 2^(c−6), and bit c of v is bit c−6 of w; for
// c < 6 the partners share a word and swap 2^c-bit blocks under the mask
// "bit c of v is set", which is also the low→high orientation mask.
//
//gossip:hotpath
func (h *HypercubeClasses) ExchangeWords(c int, o Orientation, wlo, whi int, informed, out []uint64) {
	out = out[:whi-wlo]
	if c >= 6 {
		k := 1 << uint(c-6)
		for i := range out {
			w := wlo + i
			off := k // the partner's offset, in words
			if w&k != 0 {
				off = -k
			}
			if o.keeps(off) {
				out[i] = informed[w^k]
			} else {
				out[i] = 0
			}
		}
		return
	}
	s, high := uint(1)<<uint(c), hypercubeHigh[c]
	var fromLow, fromHigh uint64 = ^uint64(0), ^uint64(0)
	switch o {
	case LowToHigh:
		fromHigh = 0
	case HighToLow:
		fromLow = 0
	}
	tail := ^uint64(0)
	if h.n < 64 {
		tail = 1<<uint(h.n) - 1
	}
	for i := range out {
		x := informed[wlo+i]
		out[i] = ((x&^high)<<s&fromLow | (x&high)>>s&fromHigh) & tail
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

// ids64 is PartnerChunk one word at a time, for packWords.
//
//gossip:hotpath
func (c *CycleClasses) ids64(cl, lo, hi int) (ids [64]int32) {
	c.PartnerChunk(cl, lo, hi, ids[:hi-lo])
	return ids
}

// ExchangeWords packs PartnerChunk a word at a time through packWords.
//
//gossip:hotpath
func (c *CycleClasses) ExchangeWords(cl int, o Orientation, wlo, whi int, informed, out []uint64) {
	packWords(c, cl, o, 0, c.n, wlo, whi, informed, out)
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

// ids64 is PartnerChunk one word at a time, for packWords.
//
//gossip:hotpath
func (t *TorusClasses) ids64(cl, lo, hi int) (ids [64]int32) {
	t.PartnerChunk(cl, lo, hi, ids[:hi-lo])
	return ids
}

// ExchangeWords packs PartnerChunk a word at a time through packWords.
//
//gossip:hotpath
func (t *TorusClasses) ExchangeWords(cl int, o Orientation, wlo, whi int, informed, out []uint64) {
	packWords(t, cl, o, 0, t.n, wlo, whi, informed, out)
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
		// A ring position i is a run of 2^D ids, all moving to the same
		// partner position.
		for v := lo; v < hi; {
			i := v >> D
			end := min(hi, (i+1)<<D)
			pi := cyclePartner(cl, i, c.d)
			for ; v < end; v++ {
				if pi < 0 {
					out[v-lo] = -1
				} else {
					out[v-lo] = int32(v + (pi-i)<<D)
				}
			}
		}
		return
	}
	for v := lo; v < hi; v++ {
		w := v & c.mask
		i := v >> D
		out[v-lo] = int32(i<<D | (w ^ (1 << uint(i))))
	}
}

// ids64 is PartnerChunk one word at a time, for packWords.
//
//gossip:hotpath
func (c *CCCClasses) ids64(cl, lo, hi int) (ids [64]int32) {
	c.PartnerChunk(cl, lo, hi, ids[:hi-lo])
	return ids
}

// ExchangeWords packs PartnerChunk a word at a time through packWords.
//
//gossip:hotpath
func (c *CCCClasses) ExchangeWords(cl int, o Orientation, wlo, whi int, informed, out []uint64) {
	packWords(c, cl, o, 0, c.n, wlo, whi, informed, out)
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

// ids64 is PartnerChunk one word at a time, for packWords.
//
//gossip:hotpath
func (b *ButterflyClasses) ids64(cl, lo, hi int) (ids [64]int32) {
	b.PartnerChunk(cl, lo, hi, ids[:hi-lo])
	return ids
}

// ExchangeWords packs PartnerChunk a word at a time through packWords.
// Class (l, m) matches only levels l−1 and l, so only their destinations
// are walked.
//
//gossip:hotpath
func (b *ButterflyClasses) ExchangeWords(cl int, o Orientation, wlo, whi int, informed, out []uint64) {
	l := cl/b.d + 1
	packWords(b, cl, o, (l-1)*b.dD, (l+1)*b.dD, wlo, whi, informed, out)
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

// ids64 is SenderChunk one word at a time, for packWords.
//
//gossip:hotpath
func (c *CycleTwoPhase) ids64(r, lo, hi int) (ids [64]int32) {
	c.SenderChunk(r, lo, hi, ids[:hi-lo])
	return ids
}

// ReceiveWords packs SenderChunk a word at a time through packWords.
//
//gossip:hotpath
func (c *CycleTwoPhase) ReceiveWords(r, wlo, whi int, informed, out []uint64) {
	packWords(c, r, Exchange, 0, c.n, wlo, whi, informed, out)
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
