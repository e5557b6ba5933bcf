package graph

// ArcSource is a generator-backed arc supplier: the implicit counterpart of
// a materialized Digraph. Implementations compute a vertex's neighbor lists
// arithmetically from its id, so a scan over an ArcSource never holds more
// than one vertex's arcs in memory — the seam that lets broadcast kernels
// stream networks whose explicit arc slices would not fit in RAM (a d=27
// hypercube has ~3.6 GiB of arc ids; its generator is three machine words).
//
// Contract: OutArcs(v, buf) writes the out-neighbors of v into buf and
// returns how many it wrote; InArcs is the same for in-neighbors. Lists are
// duplicate-free, never contain v itself, and are deterministic for a given
// implementation, but — unlike Digraph adjacency — not necessarily sorted
// (the flooding kernels OR-fold them, so order is immaterial; differential
// tests sort both sides). buf must have at least DegBound() capacity.
// Implementations must be safe for concurrent use (one ArcSource is shared
// by every worker of a scan) and must not allocate (the generator steps are
// //gossip:hotpath; per-vertex scratch lives in fixed-size local arrays or
// in the caller's buffers).
type ArcSource interface {
	// N returns the number of vertices.
	N() int
	// DegBound returns an upper bound on any vertex's in- or out-degree —
	// the capacity scans size their per-vertex arc buffers with.
	DegBound() int
	// OutArcs writes the out-neighbors of v into buf and returns the count.
	OutArcs(v int, buf []int32) int
	// InArcs writes the in-neighbors of v into buf and returns the count.
	InArcs(v int, buf []int32) int
}

// OrGatherer is the optional fast path of the flooding kernel: a source
// that implements it OR-folds a word table over in-neighborhoods itself,
// one chunk of destinations per call, replacing the per-vertex InArcs round
// trip with a specialized inner loop. An arithmetic generator computes the
// neighbors in registers (a hypercube chunk is D xors and D loads per
// vertex); DigraphSource walks its in-neighbor CSR.
type OrGatherer interface {
	// OrInChunk writes, for each destination v in [lo, hi), the OR of
	// table[u] over v's in-neighbors u into out[v-lo]. It must not read or
	// write table[v] into the fold unless v is its own in-neighbor (it
	// never is: ArcSource lists exclude self-loops), must not allocate,
	// and must be safe for concurrent use on disjoint chunks. out never
	// aliases table.
	OrInChunk(lo, hi int, table, out []uint64)
}

// GenChunkVerts is the number of destination vertices a flood step
// processes per OrInChunk call: large enough to amortize the interface
// dispatch to nothing, small enough that the chunk's out words stay
// L1-resident for the step's second pass over them.
const GenChunkVerts = 4096

// FloodGen is the per-worker view of an ArcSource the flooding kernel
// walks: the source, its OrGatherer fast path if it has one, and otherwise
// the per-vertex neighbor scratch InArcs writes into. The source is shared;
// a FloodGen with scratch serves one worker at a time, while one on the
// fast path holds none and may be shared too.
type FloodGen struct {
	src ArcSource
	og  OrGatherer // non-nil when src implements the fast path
	buf []int32    // per-vertex neighbor scratch; nil on the fast path
}

// NewFloodGen returns a view of src, allocating its fixed scratch once
// (the subsequent stepping performs zero allocations).
func NewFloodGen(src ArcSource) *FloodGen {
	if og, ok := src.(OrGatherer); ok {
		return &FloodGen{src: src, og: og}
	}
	return &FloodGen{src: src, buf: make([]int32, src.DegBound())}
}

// Src returns the underlying source.
func (fg *FloodGen) Src() ArcSource { return fg.src }

// N returns the vertex count of the underlying source.
func (fg *FloodGen) N() int { return fg.src.N() }

// Gatherer returns the source's OrGatherer fast path, or nil.
func (fg *FloodGen) Gatherer() OrGatherer { return fg.og }

// ArcBuf returns the per-vertex neighbor scratch (DegBound capacity); nil
// when the source has an OrGatherer fast path.
func (fg *FloodGen) ArcBuf() []int32 { return fg.buf }

// DigraphSource is a materialized Digraph as an ArcSource: the arc source
// broadcast scans flood a materialized network through, and the reference
// differential tests pin arithmetic generators against. Construction
// lowers the in-adjacency once into a destination-major CSR of int32
// vertex ids; its OrInChunk walks that CSR with sequential writes and
// per-vertex gathers, so neighbors of consecutive destinations, which
// cluster for the structured topologies, keep re-hitting resident lines.
// The digraph must not be modified afterwards.
type DigraphSource struct {
	g      *Digraph
	deg    int
	indptr []int32 // in-neighbors of v: src[indptr[v]:indptr[v+1]]
	src    []int32
}

// NewDigraphSource wraps g as an ArcSource. Adjacency is sorted, so
// neighbor order, like every compiled artifact, is deterministic for a
// given arc set.
func NewDigraphSource(g *Digraph) *DigraphSource {
	m, deg := 0, 0
	for v := 0; v < g.n; v++ {
		m += len(g.in[v])
		deg = max(deg, len(g.out[v]), len(g.in[v]))
	}
	k := g.n + 1
	ids := make([]int32, k+m) // indptr and src in one allocation
	s := &DigraphSource{g: g, deg: deg, indptr: ids[:k:k], src: ids[k:]}
	e := 0
	for v := 0; v < g.n; v++ {
		for _, u := range g.in[v] {
			s.src[e] = int32(u)
			e++
		}
		s.indptr[v+1] = int32(e)
	}
	return s
}

// N returns the vertex count.
func (s *DigraphSource) N() int { return s.g.n }

// DegBound returns the maximum in- or out-degree.
func (s *DigraphSource) DegBound() int { return s.deg }

// OutArcs writes the out-neighbors of v into buf.
//
//gossip:hotpath
func (s *DigraphSource) OutArcs(v int, buf []int32) int {
	adj := s.g.out[v]
	for i, u := range adj {
		buf[i] = int32(u)
	}
	return len(adj)
}

// InArcs writes the in-neighbors of v into buf.
//
//gossip:hotpath
func (s *DigraphSource) InArcs(v int, buf []int32) int {
	return copy(buf, s.src[s.indptr[v]:s.indptr[v+1]])
}

// OrInChunk folds table over the in-neighbors of every destination in
// [lo, hi). The gather is unrolled to 64 bytes (8 words) per iteration so
// the OR-tree keeps all 8 loads in flight.
//
//gossip:hotpath
func (s *DigraphSource) OrInChunk(lo, hi int, table, out []uint64) {
	indptr, src := s.indptr[lo:hi+1], s.src
	for i := range out[:hi-lo] {
		var w uint64
		j, e := int(indptr[i]), int(indptr[i+1])
		for ; e-j >= 8; j += 8 {
			w |= table[src[j]] | table[src[j+1]] | table[src[j+2]] | table[src[j+3]] |
				table[src[j+4]] | table[src[j+5]] | table[src[j+6]] | table[src[j+7]]
		}
		for ; j < e; j++ {
			w |= table[src[j]]
		}
		out[i] = w
	}
}

// MaterializeSource expands an ArcSource into an explicit Digraph — the
// small-n bridge differential tests use to pin a generator against the
// materialized builder it mirrors. It must only be called on instances
// whose arc slices fit comfortably in memory.
func MaterializeSource(src ArcSource) *Digraph {
	n := src.N()
	g := New(n)
	buf := make([]int32, src.DegBound())
	for v := 0; v < n; v++ {
		k := src.OutArcs(v, buf)
		for _, u := range buf[:k] {
			g.AddArc(v, int(u))
		}
	}
	return g
}
