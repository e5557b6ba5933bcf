package topology

import (
	"fmt"
	"math"

	"repro/internal/graph"
)

// This file implements graph.ArcSource generators for the arithmetic
// families: topologies whose arcs are computable from the vertex id alone,
// so a broadcast scan can stream them without ever materializing arc
// slices. Each generator is the family's only definition: its materialized
// builder (Hypercube, NewKautz, …) is graph.MaterializeSource over it. The
// generators are differential-pinned against reference builders kept in
// oracle_test.go (same vertex numbering, same arc set), and every neighbor
// method honors the //gossip:hotpath zero-alloc contract: per-vertex
// scratch lives in fixed-size local arrays, and neighbor ids are written
// into the caller's buffer by index.
//
// Hypercube, de Bruijn (both variants), cycle, torus and CCC additionally
// implement graph.OrGatherer: the streaming flood kernel's fast path folds
// a word table over in-neighborhoods with one interface call per
// cache-sized chunk instead of one per vertex, so no neighbor id ever
// touches memory. The hypercube and de Bruijn gathers fold contiguous runs
// of the table rather than gathering neighbor by neighbor.

// checkGenSize panics unless base^exp·factor is a positive vertex count
// whose ids fit in the int32 arc buffers scans stream through. The systolic
// registry re-validates parameters with typed errors before constructing a
// generator; this guard is the library-level backstop for direct callers.
//
//gossip:allowpanic parameter guard: the systolic registry validates topology parameters before building
func checkGenSize(kind string, base, exp, factor int) int {
	n := pow(base, exp)
	nf := n * factor
	if n != 0 && nf/n != factor {
		panic(fmt.Sprintf("topology: %s generator size overflow", kind))
	}
	if nf <= 0 || nf > math.MaxInt32 {
		panic(fmt.Sprintf("topology: %s generator size %d exceeds int32 vertex ids", kind, nf))
	}
	return nf
}

// HypercubeGen is the arithmetic hypercube Q_D: neighbor i of v is v with
// bit i flipped. Hypercube(D) materializes it.
type HypercubeGen struct {
	d int // dimension
	n int
}

// NewHypercubeGen returns the Q_D generator.
//
//gossip:allowpanic parameter guard: the systolic registry validates topology parameters before building
func NewHypercubeGen(D int) *HypercubeGen {
	if D < 1 {
		panic(fmt.Sprintf("topology: hypercube needs D ≥ 1, got %d", D))
	}
	return &HypercubeGen{d: D, n: checkGenSize("hypercube", 2, D, 1)}
}

// N returns 2^D.
func (h *HypercubeGen) N() int { return h.n }

// DegBound returns D.
func (h *HypercubeGen) DegBound() int { return h.d }

// OutArcs writes the D bit-flip neighbors of v.
//
//gossip:hotpath
func (h *HypercubeGen) OutArcs(v int, buf []int32) int {
	for i := 0; i < h.d; i++ {
		buf[i] = int32(v ^ (1 << i))
	}
	return h.d
}

// InArcs equals OutArcs: the hypercube is symmetric.
//
//gossip:hotpath
func (h *HypercubeGen) InArcs(v int, buf []int32) int { return h.OutArcs(v, buf) }

// OrInChunk folds table over in-neighborhoods dimension by dimension
// instead of vertex by vertex. Dimensions 0–2 stay inside aligned 8-word
// blocks, so one per-vertex pass folds them and initializes out. Above
// that, v ⊕ 2^i is v ± 2^i across each run of 2^i ids where bit i is
// constant, so the neighbors of a run are one contiguous slice of table;
// the remaining dimensions are folded four at a time over runs of the
// lowest one's length, and every pass over out carries four sequential
// streams. A pass short of dimensions repeats the top one, which the OR
// absorbs. Valid for any [lo, hi).
//
//gossip:hotpath
func (h *HypercubeGen) OrInChunk(lo, hi int, table, out []uint64) {
	out = out[:hi-lo]
	top := 1 << (h.d - 1)
	r1, r2 := min(2, top), min(4, top)
	for j := range out {
		v := lo + j
		out[j] = table[v^1] | table[v^r1] | table[v^r2]
	}
	for i := 3; i < h.d; i += 4 {
		r := 1 << i
		r1, r2, r3 := min(2*r, top), min(4*r, top), min(8*r, top)
		for a := lo; a < hi; {
			b := min(a|(r-1)+1, hi)
			orRuns4(out[a-lo:b-lo], table[a^r:], table[a^r1:], table[a^r2:], table[a^r3:])
			a = b
		}
	}
}

// orRuns4 ORs the first len(o) words of four slices into o.
//
//gossip:hotpath
func orRuns4(o, a, b, c, d []uint64) {
	a, b, c, d = a[:len(o)], b[:len(o)], c[:len(o)], d[:len(o)]
	for j := range o {
		o[j] |= a[j] | b[j] | c[j] | d[j]
	}
}

// CycleGen is the arithmetic cycle C_n (n ≥ 3); Cycle(n) materializes it.
type CycleGen struct {
	n int
}

// NewCycleGen returns the C_n generator.
//
//gossip:allowpanic parameter guard: the systolic registry validates topology parameters before building
func NewCycleGen(n int) *CycleGen {
	if n < 3 {
		panic(fmt.Sprintf("topology: cycle needs n ≥ 3, got %d", n))
	}
	checkGenSize("cycle", 1, 0, n)
	return &CycleGen{n: n}
}

// N returns n.
func (c *CycleGen) N() int { return c.n }

// DegBound returns 2.
func (c *CycleGen) DegBound() int { return 2 }

// OutArcs writes v's two ring neighbors.
//
//gossip:hotpath
func (c *CycleGen) OutArcs(v int, buf []int32) int {
	next, prev := v+1, v-1
	if next == c.n {
		next = 0
	}
	if prev < 0 {
		prev = c.n - 1
	}
	buf[0] = int32(prev)
	buf[1] = int32(next)
	return 2
}

// InArcs equals OutArcs: the cycle is symmetric.
//
//gossip:hotpath
func (c *CycleGen) InArcs(v int, buf []int32) int { return c.OutArcs(v, buf) }

// OrInChunk folds table over the two ring neighbors of each destination.
//
//gossip:hotpath
func (c *CycleGen) OrInChunk(lo, hi int, table, out []uint64) {
	n := c.n
	for v := lo; v < hi; v++ {
		next, prev := v+1, v-1
		if next == n {
			next = 0
		}
		if prev < 0 {
			prev = n - 1
		}
		out[v-lo] = table[prev] | table[next]
	}
}

// TorusGen is the arithmetic a×b torus (a, b ≥ 3); Torus(a, b)
// materializes it. Vertex (r, c) has id r·b + c.
type TorusGen struct {
	a, b int
	n    int
}

// NewTorusGen returns the a×b torus generator.
//
//gossip:allowpanic parameter guard: the systolic registry validates topology parameters before building
func NewTorusGen(a, b int) *TorusGen {
	if a < 3 || b < 3 {
		panic(fmt.Sprintf("topology: torus needs a,b ≥ 3, got %dx%d", a, b))
	}
	return &TorusGen{a: a, b: b, n: checkGenSize("torus", b, 1, a)}
}

// N returns a·b.
func (t *TorusGen) N() int { return t.n }

// DegBound returns 4.
func (t *TorusGen) DegBound() int { return 4 }

// OutArcs writes v's four wrap-around mesh neighbors.
//
//gossip:hotpath
func (t *TorusGen) OutArcs(v int, buf []int32) int {
	r, c := v/t.b, v%t.b
	cn, cp := c+1, c-1
	if cn == t.b {
		cn = 0
	}
	if cp < 0 {
		cp = t.b - 1
	}
	rn, rp := r+1, r-1
	if rn == t.a {
		rn = 0
	}
	if rp < 0 {
		rp = t.a - 1
	}
	buf[0] = int32(r*t.b + cp)
	buf[1] = int32(r*t.b + cn)
	buf[2] = int32(rp*t.b + c)
	buf[3] = int32(rn*t.b + c)
	return 4
}

// InArcs equals OutArcs: the torus is symmetric.
//
//gossip:hotpath
func (t *TorusGen) InArcs(v int, buf []int32) int { return t.OutArcs(v, buf) }

// OrInChunk folds table over the four mesh neighbors of each destination.
//
//gossip:hotpath
func (t *TorusGen) OrInChunk(lo, hi int, table, out []uint64) {
	for v := lo; v < hi; v++ {
		r, c := v/t.b, v%t.b
		cn, cp := c+1, c-1
		if cn == t.b {
			cn = 0
		}
		if cp < 0 {
			cp = t.b - 1
		}
		rn, rp := r+1, r-1
		if rn == t.a {
			rn = 0
		}
		if rp < 0 {
			rp = t.a - 1
		}
		out[v-lo] = table[r*t.b+cp] | table[r*t.b+cn] | table[rp*t.b+c] | table[rn*t.b+c]
	}
}

// CCCGen is the arithmetic cube-connected-cycles CCC(D) (D ≥ 3); CCC(D)
// materializes it. Vertex (w, i) has id i·2^D + w, cycle neighbors
// (w, i±1 mod D) and cube neighbor (w ⊕ 2^i, i).
type CCCGen struct {
	d    int // dimension
	n    int
	mask int // 2^D − 1
}

// NewCCCGen returns the CCC(D) generator.
//
//gossip:allowpanic parameter guard: the systolic registry validates topology parameters before building
func NewCCCGen(D int) *CCCGen {
	if D < 3 {
		panic(fmt.Sprintf("topology: CCC needs D ≥ 3, got %d", D))
	}
	return &CCCGen{d: D, n: checkGenSize("ccc", 2, D, D), mask: pow(2, D) - 1}
}

// N returns D·2^D.
func (c *CCCGen) N() int { return c.n }

// DegBound returns 3.
func (c *CCCGen) DegBound() int { return 3 }

// OutArcs writes the two cycle neighbors and the cube neighbor of v.
//
//gossip:hotpath
func (c *CCCGen) OutArcs(v int, buf []int32) int {
	w := v & c.mask
	i := v >> uint(c.d)
	in, ip := i+1, i-1
	if in == c.d {
		in = 0
	}
	if ip < 0 {
		ip = c.d - 1
	}
	buf[0] = int32(ip<<uint(c.d) | w)
	buf[1] = int32(in<<uint(c.d) | w)
	buf[2] = int32(i<<uint(c.d) | (w ^ (1 << uint(i))))
	return 3
}

// InArcs equals OutArcs: CCC is symmetric.
//
//gossip:hotpath
func (c *CCCGen) InArcs(v int, buf []int32) int { return c.OutArcs(v, buf) }

// OrInChunk folds table over the three neighbors of each destination.
//
//gossip:hotpath
func (c *CCCGen) OrInChunk(lo, hi int, table, out []uint64) {
	D := uint(c.d)
	for v := lo; v < hi; v++ {
		w := v & c.mask
		i := v >> D
		in, ip := i+1, i-1
		if in == c.d {
			in = 0
		}
		if ip < 0 {
			ip = c.d - 1
		}
		out[v-lo] = table[ip<<D|w] | table[in<<D|w] | table[i<<D|(w^(1<<uint(i)))]
	}
}

// ButterflyGen is the arithmetic unwrapped Butterfly BF(d,D); NewButterfly
// materializes it. Vertex (x, l) has id l·d^D + value(x); (x, l) with
// l > 0 is joined to the d vertices (x with digit l−1 replaced, l−1), and
// symmetrically upward.
type ButterflyGen struct {
	d, dim int // degree, diameter D
	dD     int // d^D
	n      int
	powd   []int // powd[i] = d^i
}

// NewButterflyGen returns the BF(d,D) generator.
//
//gossip:allowpanic parameter guard: the systolic registry validates topology parameters before building
func NewButterflyGen(d, D int) *ButterflyGen {
	if d < 2 || D < 1 {
		panic(fmt.Sprintf("topology: BF needs d ≥ 2, D ≥ 1, got d=%d D=%d", d, D))
	}
	b := &ButterflyGen{d: d, dim: D, dD: pow(d, D), n: checkGenSize("butterfly", d, D, D+1)}
	b.powd = make([]int, D+1)
	for i := 0; i <= D; i++ {
		b.powd[i] = pow(d, i)
	}
	return b
}

// N returns (D+1)·d^D.
func (b *ButterflyGen) N() int { return b.n }

// DegBound returns 2d (interior levels have d up- and d down-neighbors).
func (b *ButterflyGen) DegBound() int { return 2 * b.d }

// OutArcs writes the down- and up-level neighbors of v: digit replacement
// is x + (β − x_p)·d^p, so no word decode is needed.
//
//gossip:hotpath
func (b *ButterflyGen) OutArcs(v int, buf []int32) int {
	l, x := v/b.dD, v%b.dD
	k := 0
	if l > 0 {
		pd := b.powd[l-1]
		base := (l-1)*b.dD + x - (x/pd)%b.d*pd
		for beta := 0; beta < b.d; beta++ {
			buf[k] = int32(base + beta*pd)
			k++
		}
	}
	if l < b.dim {
		pd := b.powd[l]
		base := (l+1)*b.dD + x - (x/pd)%b.d*pd
		for beta := 0; beta < b.d; beta++ {
			buf[k] = int32(base + beta*pd)
			k++
		}
	}
	return k
}

// InArcs equals OutArcs: the butterfly is symmetric.
//
//gossip:hotpath
func (b *ButterflyGen) InArcs(v int, buf []int32) int { return b.OutArcs(v, buf) }

// DeBruijnGen is the arithmetic de Bruijn DB(d,D) / DB→(d,D); NewDeBruijn
// and NewDeBruijnDigraph materialize it. Successors of v are
// (v mod d^(D−1))·d+β, predecessors are γ·d^(D−1) + v/d, with self-loops
// (at constant words) omitted; the undirected variant is the symmetric
// closure, so both neighbor lists are the deduplicated union.
type DeBruijnGen struct {
	d, dim   int // degree, diameter D
	m        int // d^(D−1)
	n        int // d^D
	directed bool
}

// NewDeBruijnGen returns the DB(d,D) generator; directed selects DB→(d,D).
//
//gossip:allowpanic parameter guard: the systolic registry validates topology parameters before building
func NewDeBruijnGen(d, D int, directed bool) *DeBruijnGen {
	if d < 2 || D < 2 {
		panic(fmt.Sprintf("topology: DB needs d ≥ 2, D ≥ 2, got d=%d D=%d", d, D))
	}
	return &DeBruijnGen{d: d, dim: D, m: pow(d, D-1), n: checkGenSize("debruijn", d, D, 1), directed: directed}
}

// N returns d^D.
func (db *DeBruijnGen) N() int { return db.n }

// DegBound returns d for the digraph, 2d for the symmetric closure.
func (db *DeBruijnGen) DegBound() int {
	if db.directed {
		return db.d
	}
	return 2 * db.d
}

// succs writes the shift-append successors of v (self-loops skipped).
//
//gossip:hotpath
func (db *DeBruijnGen) succs(v int, buf []int32) int {
	base := (v % db.m) * db.d
	k := 0
	for beta := 0; beta < db.d; beta++ {
		if u := base + beta; u != v {
			buf[k] = int32(u)
			k++
		}
	}
	return k
}

// preds writes the shift-prepend predecessors of v (self-loops skipped).
//
//gossip:hotpath
func (db *DeBruijnGen) preds(v int, buf []int32) int {
	base := v / db.d
	k := 0
	for gamma := 0; gamma < db.d; gamma++ {
		if u := gamma*db.m + base; u != v {
			buf[k] = int32(u)
			k++
		}
	}
	return k
}

// OutArcs writes the successors of v; for the undirected variant the
// predecessors are unioned in with quadratic dedup (≤ 2d candidates).
//
//gossip:hotpath
func (db *DeBruijnGen) OutArcs(v int, buf []int32) int {
	k := db.succs(v, buf)
	if db.directed {
		return k
	}
	return unionInto(buf, k, db.preds(v, buf[k:]))
}

// InArcs writes the predecessors of v (union with successors when
// undirected).
//
//gossip:hotpath
func (db *DeBruijnGen) InArcs(v int, buf []int32) int {
	k := db.preds(v, buf)
	if db.directed {
		return k
	}
	return unionInto(buf, k, db.succs(v, buf[k:]))
}

// OrInChunk folds table over in-neighborhoods with no division per vertex
// and no dedup, since a duplicate id is harmless to an OR. Only the d
// constant words c·(n−1)/(d−1) are their own neighbors; they are refolded
// afterwards without the self-loop.
//
//gossip:hotpath
func (db *DeBruijnGen) OrInChunk(lo, hi int, table, out []uint64) {
	out = out[:hi-lo]
	if db.d == 2 {
		db.orIn2(lo, table, out)
	} else {
		db.orIn(lo, table, out)
	}
	k := (db.n - 1) / (db.d - 1)
	for w := (lo + k - 1) / k * k; w < hi; w += k {
		out[w-lo] = db.foldConstant(w, table)
	}
}

// orIn is the gather for any d, walked with running counters. The
// predecessors γ·m + ⌊v/d⌋ are shared by the d destinations q·d … q·d+d−1,
// so their fold runs once per group; the successors of the undirected
// variant, (v mod m)·d + β, are d contiguous words, and v mod m advances
// with v.
//
//gossip:hotpath
func (db *DeBruijnGen) orIn(lo int, table, out []uint64) {
	d, m, n := db.d, db.m, db.n
	q, j := lo/d, lo%d
	s := lo % m * d // first successor of lo
	for o := 0; o < len(out); q, j = q+1, 0 {
		var p uint64
		for u := q; u < n; u += m {
			p |= table[u]
		}
		e := min(o+d-j, len(out))
		if db.directed {
			for ; o < e; o++ {
				out[o] = p
			}
			continue
		}
		for ; o < e; o++ {
			w := p
			for _, x := range table[s : s+d] {
				w |= x
			}
			out[o] = w
			s += d
		}
		if s == n {
			s = 0
		}
	}
}

// orIn2 is the binary gather: m is a power of two, so ⌊v/2⌋ and
// (v mod m)·2 are shifts and each destination is four loads.
//
//gossip:hotpath
func (db *DeBruijnGen) orIn2(lo int, table, out []uint64) {
	m := db.m
	for o := range out {
		v := lo + o
		w := table[v>>1] | table[v>>1+m]
		if !db.directed {
			s := (v & (m - 1)) << 1
			w |= table[s] | table[s+1]
		}
		out[o] = w
	}
}

// foldConstant is the gather of a constant word v: the OR over its
// predecessors and, when undirected, successors, skipping v itself.
//
//gossip:hotpath
func (db *DeBruijnGen) foldConstant(v int, table []uint64) uint64 {
	var w uint64
	for u := v / db.d; u < db.n; u += db.m {
		if u != v {
			w |= table[u]
		}
	}
	if !db.directed {
		base := v % db.m * db.d
		for u := base; u < base+db.d; u++ {
			if u != v {
				w |= table[u]
			}
		}
	}
	return w
}

// KautzGen is the arithmetic Kautz K(d,D) / K→(d,D); NewKautz and
// NewKautzDigraph materialize it. Vertices number the adjacent-digits-differ
// words lexicographically by (x_{D−1},…,x_0), which admits a closed-form
// rank codec (Kautz.ID and Kautz.Label) — the first digit has d+1 choices
// and every later digit d choices, so
//
//	id(x) = x_{D−1}·d^(D−1) + Σ_{i<D−1} r_i·d^i,  r_i = x_i − [x_i > x_{i+1}]
//
// and decoding inverts digit by digit.
type KautzGen struct {
	d, dim   int // degree, diameter D
	n        int // (d+1)·d^(D−1)
	powd     []int
	directed bool
}

// NewKautzGen returns the K(d,D) generator; directed selects K→(d,D).
//
//gossip:allowpanic parameter guard: the systolic registry validates topology parameters before building
func NewKautzGen(d, D int, directed bool) *KautzGen {
	if d < 2 || D < 2 {
		panic(fmt.Sprintf("topology: Kautz needs d ≥ 2, D ≥ 2, got d=%d D=%d", d, D))
	}
	k := &KautzGen{d: d, dim: D, n: checkGenSize("kautz", d, D-1, d+1), directed: directed}
	k.powd = make([]int, D)
	for i := 0; i < D; i++ {
		k.powd[i] = pow(d, i)
	}
	return k
}

// N returns (d+1)·d^(D−1).
func (k *KautzGen) N() int { return k.n }

// DegBound returns d for the digraph, 2d for the symmetric closure.
func (k *KautzGen) DegBound() int {
	if k.directed {
		return k.d
	}
	return 2 * k.d
}

// decode expands id into digits x[0..D−1] (LSB first, Word convention).
//
//gossip:hotpath
func (k *KautzGen) decode(id int, x *[64]int) {
	hi := k.powd[k.dim-1]
	x[k.dim-1] = id / hi
	rem := id % hi
	for i := k.dim - 2; i >= 0; i-- {
		r := rem / k.powd[i]
		rem %= k.powd[i]
		if r >= x[i+1] {
			r++
		}
		x[i] = r
	}
}

// encode ranks digits x[0..D−1] back into a vertex id.
//
//gossip:hotpath
func (k *KautzGen) encode(x *[64]int) int {
	id := x[k.dim-1] * k.powd[k.dim-1]
	for i := k.dim - 2; i >= 0; i-- {
		r := x[i]
		if r > x[i+1] {
			r--
		}
		id += r * k.powd[i]
	}
	return id
}

// succs writes the d shift-append successors of v: y = x_{D−2}…x_0·β with
// β ≠ x_0 (always a valid Kautz word, never a self-loop).
//
//gossip:hotpath
func (k *KautzGen) succs(v int, buf []int32) int {
	var x, y [64]int
	k.decode(v, &x)
	for i := 1; i < k.dim; i++ {
		y[i] = x[i-1]
	}
	cnt := 0
	for beta := 0; beta <= k.d; beta++ {
		if beta == x[0] {
			continue
		}
		y[0] = beta
		buf[cnt] = int32(k.encode(&y))
		cnt++
	}
	return cnt
}

// preds writes the d shift-prepend predecessors of v: u = γ·x_{D−1}…x_1
// with γ ≠ x_{D−1}.
//
//gossip:hotpath
func (k *KautzGen) preds(v int, buf []int32) int {
	var x, u [64]int
	k.decode(v, &x)
	for i := 0; i < k.dim-1; i++ {
		u[i] = x[i+1]
	}
	cnt := 0
	for gamma := 0; gamma <= k.d; gamma++ {
		if gamma == x[k.dim-1] {
			continue
		}
		u[k.dim-1] = gamma
		buf[cnt] = int32(k.encode(&u))
		cnt++
	}
	return cnt
}

// OutArcs writes the successors of v (union with predecessors when
// undirected).
//
//gossip:hotpath
func (k *KautzGen) OutArcs(v int, buf []int32) int {
	cnt := k.succs(v, buf)
	if k.directed {
		return cnt
	}
	return unionInto(buf, cnt, k.preds(v, buf[cnt:]))
}

// InArcs writes the predecessors of v (union with successors when
// undirected).
//
//gossip:hotpath
func (k *KautzGen) InArcs(v int, buf []int32) int {
	cnt := k.preds(v, buf)
	if k.directed {
		return cnt
	}
	return unionInto(buf, cnt, k.succs(v, buf[cnt:]))
}

// unionInto compacts buf[:k+extra] so buf[k:k+extra] keeps only ids absent
// from buf[:k], returning the deduplicated length. Quadratic over ≤ 2d
// candidates — cheaper than any set structure at these sizes, and
// allocation-free.
//
//gossip:hotpath
func unionInto(buf []int32, k, extra int) int {
	out := k
	for i := k; i < k+extra; i++ {
		dup := false
		for j := 0; j < k; j++ {
			if buf[j] == buf[i] {
				dup = true
				break
			}
		}
		if !dup {
			buf[out] = buf[i]
			out++
		}
	}
	return out
}

// Interface conformance: every generator is an ArcSource; all but
// butterfly and Kautz also provide the chunked OR fast path.
var (
	_ graph.ArcSource  = (*HypercubeGen)(nil)
	_ graph.OrGatherer = (*HypercubeGen)(nil)
	_ graph.ArcSource  = (*CycleGen)(nil)
	_ graph.OrGatherer = (*CycleGen)(nil)
	_ graph.ArcSource  = (*TorusGen)(nil)
	_ graph.OrGatherer = (*TorusGen)(nil)
	_ graph.ArcSource  = (*CCCGen)(nil)
	_ graph.OrGatherer = (*CCCGen)(nil)
	_ graph.ArcSource  = (*ButterflyGen)(nil)
	_ graph.ArcSource  = (*DeBruijnGen)(nil)
	_ graph.OrGatherer = (*DeBruijnGen)(nil)
	_ graph.ArcSource  = (*KautzGen)(nil)
)
