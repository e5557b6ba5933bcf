package gossip

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/graph"
)

// Program is a Protocol compiled for a fixed state shape (n processors,
// items-wide knowledge sets): the schedule IR every execution layer shares.
// Compilation does the O(period) work once instead of per step:
//
//   - arcs are CSR-packed into flat arrays of precomputed
//     (srcWordOff, dstWordOff) pairs, so the hot loop neither chases slice
//     headers nor multiplies vertex ids;
//   - full-duplex opposite pairs (u,v),(v,u) are fused into a single
//     exchange op: both blocks become the OR of their beginning-of-round
//     values in one pass.
//
// Compile admits only rounds in the paper's model (§3): every vertex is an
// endpoint of at most one arc, or of exactly one opposite pair. So no two
// ops of a compiled round share a vertex, every op may read live state,
// and any contiguous cut of a round's op lists is conflict-free — the
// serial, sharded and fault-masked steps all run one merge loop over such
// cuts (State.merge).
//
// A Program is immutable after Compile, so one compiled program may back
// any number of concurrent sessions. Executing it is byte-identical to
// interpreting the protocol's arc slices round by round (the tests'
// reference interpreter).
type Program struct {
	n     int // processors
	items int // item-space width the offsets were lowered for
	words int // uint64 words per vertex

	mode    Mode
	period  int // 0 = finite
	rounds  int // explicit rounds
	fp      string
	numArcs int

	// fused[fusedStart[r]:fusedStart[r+1]] are round r's exchange ops.
	fused      []exchOp
	fusedStart []int32

	// pairs[roundStart[r]:roundStart[r+1]] are round r's unfused arcs in
	// schedule order.
	pairs      []graph.PackedArc
	roundStart []int32
}

// exchOp is a fused full-duplex opposite pair (A,B)+(B,A): both knowledge
// blocks become the OR of their beginning-of-round values.
type exchOp struct {
	AOff, BOff int32
	A, B       int32
}

// Compile lowers a protocol into a Program for an n-processor state with
// items-wide knowledge sets (items = n for gossip, 1 for the broadcast
// backends and the completion certificate). It checks the structural half
// of Protocol.Validate in every mode: in each round every vertex must be an
// endpoint of at most one arc, or of exactly one opposite pair. Any other
// round — a shared sender, a duplicate
// destination, a chain u→v→w, a self-loop — is an error naming the round
// and the arc, as are arcs outside [0, n) and layouts whose word offsets
// would overflow the packed int32 representation.
func Compile(p *Protocol, n, items int) (*Program, error) {
	if n < 0 {
		return nil, fmt.Errorf("gossip: compile with negative processor count %d", n)
	}
	if items < 1 {
		return nil, fmt.Errorf("gossip: compile with item-space width %d, want ≥ 1", items)
	}
	words := (items + 63) / 64
	if int64(n)*int64(words) > math.MaxInt32 {
		return nil, fmt.Errorf("gossip: state of %d×%d words overflows the packed offset space", n, words)
	}
	pr := &Program{
		n:          n,
		items:      items,
		words:      words,
		mode:       p.Mode,
		period:     p.Period,
		rounds:     len(p.Rounds),
		fp:         p.Fingerprint(),
		roundStart: make([]int32, 1, len(p.Rounds)+1),
		fusedStart: make([]int32, 1, len(p.Rounds)+1),
	}
	// Per-vertex round-stamped scratch: the vertex's one out-arc head and
	// one in-arc tail in the current round.
	outStamp := make([]int32, n)
	outTo := make([]int32, n)
	inStamp := make([]int32, n)
	inFrom := make([]int32, n)
	var plain []graph.Arc
	for r, round := range p.Rounds {
		stamp := int32(r + 1)
		for _, a := range round {
			u, v := a.From, a.To
			switch {
			case u < 0 || u >= n || v < 0 || v >= n:
				return nil, fmt.Errorf("gossip: round %d arc (%d,%d) outside [0, %d)", r, u, v, n)
			case u == v:
				return nil, fmt.Errorf("gossip: round %d arc (%d,%d) is a self-loop", r, u, v)
			case outStamp[u] == stamp:
				return nil, fmt.Errorf("gossip: round %d arc (%d,%d): vertex %d already sends to %d", r, u, v, u, outTo[u])
			case inStamp[v] == stamp:
				return nil, fmt.Errorf("gossip: round %d arc (%d,%d): vertex %d already receives from %d", r, u, v, v, inFrom[v])
			}
			outStamp[u], outTo[u] = stamp, int32(v)
			inStamp[v], inFrom[v] = stamp, int32(u)
		}
		// Each vertex now sends and receives at most once. A sender that
		// also receives must receive on the arc's opposite; anything else
		// chains through it. (Every vertex that both sends and receives is
		// some arc's sender, so checking senders covers every vertex.)
		plain = plain[:0]
		for _, a := range round {
			u, v := a.From, a.To
			switch {
			case inStamp[u] == stamp && inFrom[u] != int32(v):
				return nil, fmt.Errorf("gossip: round %d arc (%d,%d): sender %d also receives from %d", r, u, v, u, inFrom[u])
			case inStamp[u] != stamp:
				plain = append(plain, a)
			case u < v: // an opposite pair; emit it once
				pr.fused = append(pr.fused, exchOp{
					AOff: int32(u * words), BOff: int32(v * words),
					A: int32(u), B: int32(v),
				})
			}
		}
		pr.pairs = graph.PackArcs(pr.pairs, plain, words)
		pr.roundStart = append(pr.roundStart, int32(len(pr.pairs)))
		pr.fusedStart = append(pr.fusedStart, int32(len(pr.fused)))
		pr.numArcs += len(round)
	}
	return pr, nil
}

// N returns the processor count the program was compiled for.
func (pr *Program) N() int { return pr.n }

// Items returns the item-space width the offsets were lowered for.
func (pr *Program) Items() int { return pr.items }

// Mode returns the protocol's communication model.
func (pr *Program) Mode() Mode { return pr.mode }

// Period returns the systolic period (0 for a finite protocol).
func (pr *Program) Period() int { return pr.period }

// Systolic reports whether the program repeats with a finite period.
func (pr *Program) Systolic() bool { return pr.period > 0 }

// Len returns the number of explicit compiled rounds (one period for a
// systolic protocol).
func (pr *Program) Len() int { return pr.rounds }

// NumArcs returns the total number of schedule arcs across the explicit
// rounds (fused exchanges count as their two arcs).
func (pr *Program) NumArcs() int { return pr.numArcs }

// Fingerprint returns the FNV-1a schedule fingerprint of the source
// protocol — the identity checkpoints and caches key compiled artifacts by.
func (pr *Program) Fingerprint() string { return pr.fp }

// roundIndex maps a 0-based execution round onto an explicit compiled
// round, applying the periodic repetition; it returns -1 when the round is
// out of schedule (negative, or past the end of a finite protocol), which
// executes as an empty round.
func (pr *Program) roundIndex(i int) int {
	if i < 0 {
		return -1
	}
	if pr.period > 0 {
		return i % pr.period
	}
	if i >= pr.rounds {
		return -1
	}
	return i
}

// StepProgram applies execution round i of a compiled program: fused
// exchanges, then the remaining arcs, each merging its sender's words into
// its receiver. With SetShards the round is cut into shares run on the
// worker runtime.
// The result is byte-identical to interpreting the arcs of p.Round(i), and
// the steady state performs zero allocations. Out-of-schedule rounds
// (finite protocol past its end) are no-ops, like an empty round.
//
//gossip:hotpath
func (s *State) StepProgram(pr *Program, i int) {
	s.checkProgram(pr)
	r := pr.roundIndex(i)
	if r < 0 {
		return
	}
	if s.shards > 1 {
		s.stepPr, s.stepR = pr, r
		s.fan.Run((*shardStep)(s), s.shards, s.shards)
		return
	}
	gained, newlyFull := s.merge(pr, r, 0, 1, nil)
	s.know += gained
	s.full += newlyFull
}

//gossip:allowpanic pairing guard: the session layer establishes program/state compatibility
func (s *State) checkProgram(pr *Program) {
	if pr.n != s.n || pr.items != s.items {
		panic(fmt.Sprintf("gossip: program compiled for n=%d items=%d executed on state n=%d items=%d",
			pr.n, pr.items, s.n, s.items))
	}
}

// merge applies share w of W of compiled round r — the w-th contiguous cut
// of its fused ops and of its arcs — and returns the items gained and the
// vertices that just reached full knowledge. No two ops of a round share a
// vertex, so every op reads live state and disjoint shares may run
// concurrently. A non-nil keep decides delivery per arc, consulted for
// every fused op (keep(A, B), then keep(B, A), both always) and then every
// arc, in program order.
func (s *State) merge(pr *Program, r, w, W int, keep ArcFilter) (gained, newlyFull int64) {
	fused := pr.fused[pr.fusedStart[r]:pr.fusedStart[r+1]]
	arcs := pr.pairs[pr.roundStart[r]:pr.roundStart[r+1]]
	fused = fused[len(fused)*w/W : len(fused)*(w+1)/W]
	arcs = arcs[len(arcs)*w/W : len(arcs)*(w+1)/W]
	for _, e := range fused {
		kab, kba := true, true
		if keep != nil {
			kab, kba = keep(e.A, e.B), keep(e.B, e.A)
		}
		var g, nf int
		switch {
		case kab && kba:
			g, nf = s.exchange(e)
		case kab:
			g, nf = s.recv(e.AOff, e.BOff, e.B)
		case kba:
			g, nf = s.recv(e.BOff, e.AOff, e.A)
		}
		gained += int64(g)
		newlyFull += int64(nf)
	}
	for _, pa := range arcs {
		if keep != nil && !keep(pa.From, pa.To) {
			continue
		}
		g, nf := s.recv(pa.SrcOff, pa.DstOff, pa.To)
		gained += int64(g)
		newlyFull += int64(nf)
	}
	return gained, newlyFull
}

// exchange applies a fused opposite pair: both blocks become the OR of
// their pre-op values in a single pass. It returns the total items gained
// across both endpoints and how many endpoints just reached full knowledge.
func (s *State) exchange(e exchOp) (gained, newlyFull int) {
	w := s.words
	ao, bo := int(e.AOff), int(e.BOff)
	sa := s.cur[ao : ao+w : ao+w]
	sb := s.cur[bo : bo+w : bo+w]
	var ga, gb int
	for i := 0; i < len(sa); i++ {
		// Skip equal words four at a time. Past saturation most blocks
		// agree, and a one-word skip loop ran up to ~1.4× slower or faster
		// depending only on where the linker placed it.
		for i+4 <= len(sa) && (sa[i]^sb[i])|(sa[i+1]^sb[i+1])|(sa[i+2]^sb[i+2])|(sa[i+3]^sb[i+3]) == 0 {
			i += 4
		}
		if i == len(sa) {
			break
		}
		x, y := sa[i], sb[i]
		if x == y {
			continue
		}
		m := x | y
		if m != x {
			sa[i] = m
			ga += bits.OnesCount64(m &^ x)
		}
		if m != y {
			sb[i] = m
			gb += bits.OnesCount64(m &^ y)
		}
	}
	if ga > 0 {
		s.counts[e.A] += int32(ga)
		if int(s.counts[e.A]) == s.items {
			newlyFull++
		}
	}
	if gb > 0 {
		s.counts[e.B] += int32(gb)
		if int(s.counts[e.B]) == s.items {
			newlyFull++
		}
	}
	return ga + gb, newlyFull
}

// recv merges the block at srcOff into receiver to's block at dstOff. The
// word offsets come straight from the program, so the hot loop performs no
// vertex-id arithmetic. It returns the items gained and 1 if the receiver
// just reached full knowledge.
func (s *State) recv(srcOff, dstOff, to int32) (gained, newlyFull int) {
	w := s.words
	so, do := int(srcOff), int(dstOff)
	src := s.cur[so : so+w]
	dst := s.cur[do : do+w : do+w]
	for i, sw := range src {
		old := dst[i]
		if nw := old | sw; nw != old {
			dst[i] = nw
			gained += bits.OnesCount64(nw &^ old)
		}
	}
	if gained > 0 {
		s.counts[to] += int32(gained)
		if int(s.counts[to]) == s.items {
			newlyFull = 1
		}
	}
	return gained, newlyFull
}

// StepProgram applies execution round i of a compiled program to the
// one-bit-per-vertex broadcast frontier and returns the number of newly
// informed vertices. It is byte-identical to interpreting the arcs of
// p.Round(i): no two ops of a compiled round share a vertex, so reading the
// live bits is reading the beginning-of-round bits.
//
//gossip:allowpanic pairing guard: the session layer establishes program/state compatibility
//gossip:hotpath
func (f *FrontierState) StepProgram(pr *Program, i int) int {
	if pr.n != f.n {
		panic(fmt.Sprintf("gossip: program compiled for n=%d executed on frontier n=%d", pr.n, f.n))
	}
	r := pr.roundIndex(i)
	if r < 0 {
		return 0
	}
	gained := 0
	for _, e := range pr.fused[pr.fusedStart[r]:pr.fusedStart[r+1]] {
		gained += f.inform(e.A, e.B) + f.inform(e.B, e.A)
	}
	for _, pa := range pr.pairs[pr.roundStart[r]:pr.roundStart[r+1]] {
		gained += f.inform(pa.From, pa.To)
	}
	f.know += gained
	return gained
}

// inform delivers one arc to the frontier, returning 1 if it informed to.
func (f *FrontierState) inform(from, to int32) int {
	if f.informed.has(int(from)) && !f.informed.has(int(to)) {
		f.informed.set(int(to))
		return 1
	}
	return 0
}

// CompletionCertificate verifies Definition 3.1 condition 2 on the compiled
// schedule: for every ordered pair (x, y) a time-respecting dipath from x
// to y exists within the first t execution rounds. See the package-level
// CompletionCertificate for the semantics; this is the same forward
// propagation driven by the packed schedule.
func (pr *Program) CompletionCertificate(t int) bool {
	n := pr.n
	reached := make([]int, n)
	for x := 0; x < n; x++ {
		stamp := x + 1
		reached[x] = stamp
		cnt := 1
		for r := 0; r < t && cnt < n; r++ {
			idx := pr.roundIndex(r)
			if idx < 0 {
				continue
			}
			reach := func(from, to int32) {
				if reached[from] == stamp && reached[to] != stamp {
					reached[to] = stamp
					cnt++
				}
			}
			for _, e := range pr.fused[pr.fusedStart[idx]:pr.fusedStart[idx+1]] {
				reach(e.A, e.B)
				reach(e.B, e.A)
			}
			for _, pa := range pr.pairs[pr.roundStart[idx]:pr.roundStart[idx+1]] {
				reach(pa.From, pa.To)
			}
		}
		if cnt < n {
			return false
		}
	}
	return true
}
