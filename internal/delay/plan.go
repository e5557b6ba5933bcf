package delay

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/gossip"
	"repro/internal/graph"
	"repro/internal/matrix"
)

// Plan is the compiled delay lowering of one protocol: the per-round
// activation structure of the delay digraph (Definition 3.3) derived from
// the schedule once, from which the digraph of any executed round count T
// instantiates without re-walking or re-validating the protocol.
//
// For an s-systolic protocol the digraph is periodic — execution round
// i = q·s + r activates exactly the explicit round r, and every delay arc
// (x,y,i) → (y,z,j) has 1 ≤ j−i < s, so it either stays within repetition q
// (a later round of the same period) or crosses into repetition q+1 (an
// earlier round of the next period). The plan therefore stores, per
// activation, the two segments of its head vertex's outgoing activations —
// the same-repetition suffix and the next-repetition prefix — and
// instantiation replays them per repetition in O(verts + arcs), never
// touching the protocol again. Finite protocols (the s→∞ reading of the
// corollaries, horizon = T) store the same per-vertex activation lists and
// instantiate by suffix alone.
//
// Instances are memoized by round count: a serving layer certifying the
// same protocol repeatedly reuses one instance, whose M(λ) evaluations (the
// Theorem 4.1 checks and the λ loops of the root finders) run against a
// fixed block structure with zero steady-state allocations. A Plan and its
// Instances are safe for concurrent use.
type Plan struct {
	n      int // network vertices
	period int // systolic period; 0 = finite schedule
	rounds int // explicit rounds (one period for a systolic protocol)

	acts     []Activation // explicit rounds' activations, round-major
	actStart []int32      // len rounds+1: per-round prefix counts into acts
	outAt    [][]int32    // per network vertex: indices into acts of activations leaving it, ascending

	// Per activation a entering vertex v at explicit round r:
	// outAt[v][sufStart[a]:] are the later-round activations (same
	// repetition, weight rb−r) and outAt[v][:prefEnd[a]] the earlier-round
	// ones (next repetition, weight s+rb−r). Same-round activations sit
	// between the two segments and contribute no delay arc (their weight
	// would be 0 or s, outside [1, s)).
	sufStart []int32
	prefEnd  []int32

	mu      sync.Mutex
	insts   map[int]*Instance
	instAge []int // round counts in insertion order, oldest first
}

// maxMemoInstances bounds the per-plan instance memo. A certification
// workload revisits one round count (the completion time) plus at most a
// few truncation budgets; a budget scan over one shared plan must recompute
// instead of retaining every unrolled digraph forever.
const maxMemoInstances = 8

// NewPlan validates p on g and compiles its delay lowering. The work is
// O(activations·log) once; every Instance call afterwards skips the
// protocol entirely.
func NewPlan(g *graph.Digraph, p *gossip.Protocol) (*Plan, error) {
	if err := p.Validate(g); err != nil {
		return nil, err
	}
	return NewPlanValidated(g, p)
}

// NewPlanValidated compiles the delay lowering of a protocol the caller has
// already validated against g — the compiled-Program path, whose schedule
// passed Validate at compile time, uses it to skip the duplicate
// O(rounds × arcs) validation walk. Behavior is otherwise identical to
// NewPlan.
func NewPlanValidated(g *graph.Digraph, p *gossip.Protocol) (*Plan, error) {
	rounds := p.Len()
	if p.Systolic() {
		if p.Period > rounds {
			return nil, fmt.Errorf("delay: systolic period %d exceeds %d explicit rounds", p.Period, rounds)
		}
		rounds = p.Period
	}
	pl := &Plan{
		n:        g.N(),
		period:   p.Period,
		rounds:   rounds,
		actStart: make([]int32, 1, rounds+1),
		outAt:    make([][]int32, g.N()),
	}
	for r := 0; r < rounds; r++ {
		for _, a := range p.Round(r) {
			pl.acts = append(pl.acts, Activation{From: a.From, To: a.To, Round: r})
		}
		pl.actStart = append(pl.actStart, int32(len(pl.acts)))
	}
	for idx, act := range pl.acts {
		pl.outAt[act.From] = append(pl.outAt[act.From], int32(idx))
	}
	pl.sufStart = make([]int32, len(pl.acts))
	pl.prefEnd = make([]int32, len(pl.acts))
	for idx, act := range pl.acts {
		out := pl.outAt[act.To]
		r := act.Round
		pl.sufStart[idx] = int32(sort.Search(len(out), func(i int) bool {
			return pl.acts[out[i]].Round > r
		}))
		pl.prefEnd[idx] = int32(sort.Search(len(out), func(i int) bool {
			return pl.acts[out[i]].Round >= r
		}))
	}
	return pl, nil
}

// N returns the network vertex count the plan was compiled for.
func (pl *Plan) N() int { return pl.n }

// Period returns the systolic period (0 for a finite protocol).
func (pl *Plan) Period() int { return pl.period }

// Instance returns the delay digraph of the protocol executed for t rounds,
// in evaluation-ready compiled form. Instances are memoized per t (bounded
// to maxMemoInstances, oldest evicted first) and shared: the second
// certification of the same (protocol, rounds) pair pays nothing but a map
// lookup, while a scan over many round counts recomputes instead of
// retaining every unrolled digraph.
func (pl *Plan) Instance(t int) (*Instance, error) {
	if t <= 0 {
		return nil, fmt.Errorf("delay: nonpositive round count %d", t)
	}
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if in, ok := pl.insts[t]; ok {
		return in, nil
	}
	in := pl.instantiate(t)
	if pl.insts == nil {
		pl.insts = make(map[int]*Instance)
	}
	if len(pl.instAge) >= maxMemoInstances {
		delete(pl.insts, pl.instAge[0])
		pl.instAge = append(pl.instAge[:0], pl.instAge[1:]...)
	}
	pl.insts[t] = in
	pl.instAge = append(pl.instAge, t)
	return in, nil
}

// instantiate unrolls the compiled activation structure for t executed
// rounds into M(λ)'s block index: the arcs row by row (rows in Build's
// round-major vertex order) with the integer weight exponent and the local
// column of every delay arc, plus the rows grouped by head vertex.
func (pl *Plan) instantiate(t int) *Instance {
	in := &Instance{plan: pl, t: t}
	if pl.period > 0 {
		in.horizon = pl.period
		pl.unrollSystolic(t, in)
	} else {
		in.horizon = t
		pl.unrollFinite(t, in)
	}
	A := len(pl.acts)
	in.groupRows(pl.n, func(row int) int { return pl.acts[row%A].To })
	in.eval = blockNorm{set: &in.blockSet, pow: make([]float64, in.maxW+1)}
	return in
}

// Block y's columns are y's outgoing activations, round-major: the i-th
// activation of outAt[y] in repetition q is local column q·len(outAt[y])+i.
func (pl *Plan) unrollSystolic(t int, in *Instance) {
	A := len(pl.acts)
	s := pl.period
	full, rem := t/s, t%s
	in.verts = full*A + int(pl.actStart[rem])
	in.rowPtr = make([]int, 1, in.verts+1)
	for q := 0; q*s < t; q++ {
		lim := A
		if q == full {
			lim = int(pl.actStart[rem])
		}
		for a := 0; a < lim; a++ {
			act := pl.acts[a]
			out := pl.outAt[act.To]
			m := len(out)
			r := act.Round
			for i := int(pl.sufStart[a]); i < m; i++ {
				rb := pl.acts[out[i]].Round
				if q*s+rb >= t {
					break // out is round-ascending; later entries only grow
				}
				in.push(q*m+i, rb-r)
			}
			for i := 0; i < int(pl.prefEnd[a]); i++ {
				rb := pl.acts[out[i]].Round
				if (q+1)*s+rb >= t {
					break
				}
				in.push((q+1)*m+i, s+rb-r)
			}
			in.rowPtr = append(in.rowPtr, len(in.col))
		}
	}
}

func (pl *Plan) unrollFinite(t int, in *Instance) {
	tEff := t
	if tEff > pl.rounds {
		tEff = pl.rounds
	}
	in.verts = int(pl.actStart[tEff])
	in.rowPtr = make([]int, 1, in.verts+1)
	for a := 0; a < in.verts; a++ {
		act := pl.acts[a]
		out := pl.outAt[act.To]
		for i := int(pl.sufStart[a]); i < len(out); i++ {
			k := out[i]
			if int(k) >= in.verts {
				break
			}
			in.push(i, pl.acts[k].Round-act.Round)
		}
		in.rowPtr = append(in.rowPtr, len(in.col))
	}
}

// Instance is one delay digraph in compiled, evaluation-ready form: the
// block index of M(λ) (Definition 3.4) with integer weight exponents, plus
// the power table and Lanczos scratch every λ evaluation reuses. Recent
// norms are memoized, so re-certifying at the same root λ₀ costs a lookup.
// All methods are safe for concurrent use (evaluations serialize on the
// instance mutex; Digraph and Matrix return fresh storage).
type Instance struct {
	plan    *Plan
	t       int // executed rounds the instance was unrolled for
	horizon int // s for a systolic protocol, t for a finite one
	verts   int
	blockSet

	mu      sync.Mutex
	eval    blockNorm
	memo    [normMemoSize]normMemo
	memoLen int
	memoPos int
}

// normMemoSize bounds the per-instance ring of memoized ‖M(λ)‖ values —
// enough for the handful of roots a certification evaluates, irrelevant for
// grid scans (which recompute into the shared scratch anyway).
const normMemoSize = 8

type normMemo struct{ lambda, norm float64 }

func (in *Instance) push(col, w int) {
	in.col = append(in.col, int32(col))
	in.wExp = append(in.wExp, int32(w))
	if w > in.maxW {
		in.maxW = w
	}
}

// T returns the executed round count the instance covers.
func (in *Instance) T() int { return in.t }

// Horizon returns the delay-arc horizon (the systolic period s, or T for a
// finite protocol — the s→∞ reading).
func (in *Instance) Horizon() int { return in.horizon }

// Verts returns the number of delay-digraph vertices (activations).
func (in *Instance) Verts() int { return in.verts }

// Arcs returns the number of delay arcs.
func (in *Instance) Arcs() int { return len(in.col) }

//gossip:allowpanic domain guard: delay recurrences run on validated parameters; a violation is a programming error
func checkLambda(fn string, lambda float64) {
	if lambda <= 0 || lambda >= 1 {
		panic(fmt.Sprintf("delay: %s needs 0 < λ < 1, got %g", fn, lambda))
	}
}

// Matrix returns the delay matrix M(λ) of Definition 3.4 as a freshly
// assembled CSR matrix, rows and columns in Build's vertex order.
func (in *Instance) Matrix(lambda float64) *matrix.CSR {
	return in.Digraph().Matrix(lambda)
}

// Norm returns ‖M(λ)‖₂ (bounded by Lemma 4.3 / 6.1 for systolic protocols)
// as the largest per-vertex block norm. The evaluation reuses the
// instance's power table and Lanczos scratch, so a λ loop performs zero
// steady-state allocations; recently evaluated λ are answered from a small
// memo.
func (in *Instance) Norm(lambda float64) float64 {
	checkLambda("Norm", lambda)
	in.mu.Lock()
	defer in.mu.Unlock()
	for i := 0; i < in.memoLen; i++ {
		if in.memo[i].lambda == lambda {
			return in.memo[i].norm
		}
	}
	n := in.eval.norm(lambda)
	in.memo[in.memoPos] = normMemo{lambda: lambda, norm: n}
	in.memoPos = (in.memoPos + 1) % normMemoSize
	if in.memoLen < normMemoSize {
		in.memoLen++
	}
	return n
}

// makeVerts materializes the activation list of the instance, round-major —
// exactly Build's vertex order.
func (in *Instance) makeVerts() []Activation {
	verts := make([]Activation, 0, in.verts)
	pl := in.plan
	if pl.period == 0 {
		return append(verts, pl.acts[:in.verts]...)
	}
	A := len(pl.acts)
	s := pl.period
	for q := 0; len(verts) < in.verts; q++ {
		lim := A
		if rest := in.verts - len(verts); rest < A {
			lim = rest
		}
		for a := 0; a < lim; a++ {
			act := pl.acts[a]
			act.Round += q * s
			verts = append(verts, act)
		}
	}
	return verts
}

// Digraph materializes the classic Definition 3.3 representation of the
// instance — the structure Build returns. Verts and Arcs are fresh slices
// the caller may keep.
func (in *Instance) Digraph() *Digraph {
	pl := in.plan
	A := len(pl.acts)
	dg := &Digraph{
		Verts:   in.makeVerts(),
		Arcs:    make([]DelayArc, 0, len(in.col)),
		Horizon: in.horizon,
		T:       in.t,
		N:       pl.n,
	}
	for row := 0; row < in.verts; row++ {
		out := pl.outAt[dg.Verts[row].To]
		for e := in.rowPtr[row]; e < in.rowPtr[row+1]; e++ {
			c := int(in.col[e]) // = q·len(out) + i, see unrollSystolic
			b := c/len(out)*A + int(out[c%len(out)])
			dg.Arcs = append(dg.Arcs, DelayArc{A: row, B: b, W: int(in.wExp[e])})
		}
	}
	return dg
}
