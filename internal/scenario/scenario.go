// Package scenario injects faults — random message loss, node churn, and
// adversarial arc deletion — into executions of a compiled gossip schedule.
//
// A Spec describes the fault model declaratively; Compile validates it
// against a vertex count and precomputes the lookup structures; each
// Monte-Carlo trial then owns a Trial, which drives masked program steps
// (gossip.State.StepProgramMasked) through a deterministic splitmix64
// stream.
// Identical (Spec, trial index) pairs always reproduce identical
// executions, independent of scheduling: the trial's PRNG stream is
// derived from the spec seed and the trial index alone, and the masked
// stepper consults the filter in a fixed documented order.
//
// An inactive scenario (zero loss, no crash windows, no deletions) costs
// nothing: Trial.Step delegates straight to the unmasked StepProgram, so
// the zero-alloc hot path is untouched.
package scenario

import (
	"fmt"

	"repro/internal/gossip"
	"repro/internal/graph"
)

// ArcLoss overrides the global loss probability on one directed arc.
type ArcLoss struct {
	From, To int
	Loss     float64
}

// Window crashes one node for the half-open round interval [From, To):
// while down the node neither sends nor receives on any arc. Rejoining is
// warm — the node keeps the knowledge it held when it crashed.
type Window struct {
	Node     int
	From, To int
}

// Spec is the declarative fault model of one scenario.
type Spec struct {
	// Loss is the probability, per scheduled arc per round, that the
	// transfer is dropped. Must lie in [0, 1].
	Loss float64
	// ArcLoss overrides Loss on specific directed arcs.
	ArcLoss []ArcLoss
	// Crashes lists node down-windows. Windows may overlap.
	Crashes []Window
	// Deleted lists directed arcs the adversary removes for the whole
	// execution (a transfer scheduled on a deleted arc never delivers).
	Deleted []graph.Arc
	// Seed roots the deterministic PRNG. Every trial derives its own
	// stream from (Seed, trial index), so a scenario's trial distribution
	// is a pure function of the spec.
	Seed uint64
}

// Active reports whether the spec injects any fault at all.
func (sp *Spec) Active() bool {
	if sp == nil {
		return false
	}
	return sp.Loss > 0 || len(sp.ArcLoss) > 0 || len(sp.Crashes) > 0 || len(sp.Deleted) > 0
}

// Compiled is a validated scenario bound to a vertex count, ready to mint
// trials. It is immutable and safe for concurrent use; each Trial is not.
type Compiled struct {
	n       int
	loss    float64
	arcLoss map[[2]int32]float64
	deleted map[[2]int32]bool
	crashes []Window
	hasLoss bool // loss > 0 or any per-arc override > 0
	seed    uint64
	active  bool
}

// Compile validates sp against an n-vertex network and precomputes the
// per-arc lookup tables. A nil spec compiles to an inactive scenario.
func Compile(sp *Spec, n int) (*Compiled, error) {
	if n <= 0 {
		return nil, fmt.Errorf("scenario: network has %d vertices", n)
	}
	c := &Compiled{n: n}
	if sp == nil {
		return c, nil
	}
	if sp.Loss < 0 || sp.Loss > 1 {
		return nil, fmt.Errorf("scenario: loss %v outside [0, 1]", sp.Loss)
	}
	c.loss = sp.Loss
	c.hasLoss = sp.Loss > 0
	c.seed = sp.Seed
	if len(sp.ArcLoss) > 0 {
		c.arcLoss = make(map[[2]int32]float64, len(sp.ArcLoss))
		for _, al := range sp.ArcLoss {
			if al.From < 0 || al.From >= n || al.To < 0 || al.To >= n {
				return nil, fmt.Errorf("scenario: arc-loss endpoint (%d, %d) outside [0, %d)", al.From, al.To, n)
			}
			if al.Loss < 0 || al.Loss > 1 {
				return nil, fmt.Errorf("scenario: arc-loss %v on (%d, %d) outside [0, 1]", al.Loss, al.From, al.To)
			}
			c.arcLoss[[2]int32{int32(al.From), int32(al.To)}] = al.Loss
			if al.Loss > 0 {
				c.hasLoss = true
			}
		}
	}
	if len(sp.Deleted) > 0 {
		c.deleted = make(map[[2]int32]bool, len(sp.Deleted))
		for _, a := range sp.Deleted {
			if a.From < 0 || a.From >= n || a.To < 0 || a.To >= n {
				return nil, fmt.Errorf("scenario: deleted arc (%d, %d) outside [0, %d)", a.From, a.To, n)
			}
			c.deleted[[2]int32{int32(a.From), int32(a.To)}] = true
		}
	}
	for _, w := range sp.Crashes {
		if w.Node < 0 || w.Node >= n {
			return nil, fmt.Errorf("scenario: crash node %d outside [0, %d)", w.Node, n)
		}
		if w.From < 0 || w.To < w.From {
			return nil, fmt.Errorf("scenario: crash window [%d, %d) on node %d is not a round interval", w.From, w.To, w.Node)
		}
		if w.To > w.From {
			c.crashes = append(c.crashes, w)
		}
	}
	c.active = c.hasLoss || len(c.crashes) > 0 || len(c.deleted) > 0
	return c, nil
}

// N returns the vertex count the scenario was compiled against.
func (c *Compiled) N() int { return c.n }

// Active reports whether the compiled scenario injects any fault.
func (c *Compiled) Active() bool { return c.active }

// Trial is one deterministic Monte-Carlo execution of a scenario: it owns
// a splitmix64 stream seeded from (spec seed, trial index) and the
// per-round crash bitset. A Trial serves one execution at a time and is
// not safe for concurrent use; Reset rewinds it for reuse.
type Trial struct {
	c      *Compiled
	filter gossip.ArcFilter // bound once so steps allocate nothing

	rng uint64 // splitmix64 state

	down      []uint64 // bitset of crashed nodes for downRound
	downAny   bool
	downRound int
}

// Trial mints the i-th trial of the scenario. Trials are independent:
// stream i is a pure function of (seed, i), so distributions do not depend
// on how trials are spread across workers.
func (c *Compiled) Trial(i int) *Trial {
	t := &Trial{c: c, downRound: -1}
	t.filter = t.keep
	if len(c.crashes) > 0 {
		t.down = make([]uint64, (c.n+63)/64)
	}
	t.Reset(i)
	return t
}

// Reset rewinds the trial to the start of execution as trial index i,
// without reallocating.
func (t *Trial) Reset(i int) {
	t.rng = mix64(t.c.seed + (uint64(i)+1)*0x9E3779B97F4A7C15)
	t.downAny = false
	t.downRound = -1
	if t.down != nil {
		clear(t.down)
	}
}

// Step applies round i of the compiled program to st under the trial's
// faults. Inactive scenarios delegate to the unmasked step.
//
//gossip:hotpath
func (t *Trial) Step(st *gossip.State, pr *gossip.Program, i int) {
	if !t.c.active {
		st.StepProgram(pr, i)
		return
	}
	t.syncRound(i)
	st.StepProgramMasked(pr, i, t.filter)
}

// syncRound recomputes the crash bitset when the round changes. Crash
// lists are short (operator-written), so a linear scan per round is cheap
// and allocation-free.
func (t *Trial) syncRound(round int) {
	if len(t.c.crashes) == 0 || round == t.downRound {
		return
	}
	t.downRound = round
	clear(t.down)
	t.downAny = false
	for _, w := range t.c.crashes {
		if round >= w.From && round < w.To {
			t.down[w.Node/64] |= 1 << (w.Node % 64)
			t.downAny = true
		}
	}
}

// keep is the gossip.ArcFilter of the trial. Decision order: crashed
// endpoints drop first, then adversarial deletions, and only then — and
// only when the effective loss is positive — is a PRNG word drawn. The
// early-outs are deterministic functions of the spec and the round, so
// the stream stays reproducible.
func (t *Trial) keep(from, to int32) bool {
	if t.downAny && (t.isDown(from) || t.isDown(to)) {
		return false
	}
	if t.c.deleted != nil && t.c.deleted[[2]int32{from, to}] {
		return false
	}
	if !t.c.hasLoss {
		return true
	}
	loss := t.c.loss
	if t.c.arcLoss != nil {
		if o, ok := t.c.arcLoss[[2]int32{from, to}]; ok {
			loss = o
		}
	}
	if loss <= 0 {
		return true
	}
	// 53-bit uniform draw in [0, 1); the arc delivers iff the draw clears
	// the loss probability.
	u := float64(t.next()>>11) * (1.0 / (1 << 53))
	return u >= loss
}

func (t *Trial) isDown(v int32) bool {
	return t.down[v>>6]&(1<<(v&63)) != 0
}

// next advances the trial's splitmix64 stream.
func (t *Trial) next() uint64 {
	t.rng += 0x9E3779B97F4A7C15
	return mix64(t.rng)
}

// mix64 is the splitmix64 finalizer (Steele, Lea & Flood; public domain
// reference constants).
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
