package gossip

import (
	"math/bits"
	"sync"

	"repro/internal/graph"
)

// The arc-slice interpreters: one round applied straight from its arcs,
// the reference semantics every compiled and generator kernel is
// differential-tested against. No library path steps raw arc slices, so
// they live with the tests as oracles.
//
// Unlike the compiled steps, the oracles accept arbitrary arc sets, so they
// snapshot every sender before any merge. The snapshot lives in test-only
// shadow storage the size of the state, grown on first use and reused
// after, so a steady-state oracle step allocates nothing.
var oracleShadow struct {
	sync.Mutex
	words []uint64 // State.Step: senders' blocks at their state offsets
	bits  bitset   // FrontierState.Step: the beginning-of-round informed set
}

// Step applies one communication round: for each active arc (x, y), y learns
// everything x knew at the beginning of the round. All transfers in a round
// are simultaneous, for any arc set: every sender's words are snapshotted
// before any merge. It always runs serially, whatever SetShards says.
func (s *State) Step(round []graph.Arc) {
	oracleShadow.Lock()
	defer oracleShadow.Unlock()
	if len(oracleShadow.words) < len(s.cur) {
		oracleShadow.words = make([]uint64, len(s.cur))
	}
	prev := oracleShadow.words
	w := s.words
	for _, a := range round {
		o := a.From * w
		copy(prev[o:o+w], s.cur[o:o+w])
	}
	for _, a := range round {
		src := prev[a.From*w : a.From*w+w]
		dst := s.cur[a.To*w : a.To*w+w : a.To*w+w]
		gained := 0
		for i, sw := range src {
			old := dst[i]
			if nw := old | sw; nw != old {
				dst[i] = nw
				gained += bits.OnesCount64(nw &^ old)
			}
		}
		if gained > 0 {
			s.counts[a.To] += int32(gained)
			s.know += int64(gained)
			if int(s.counts[a.To]) == s.items {
				s.full++
			}
		}
	}
}

// Step applies one communication round — an arc (x, y) informs y iff x was
// informed at the beginning of the round — and returns the number of newly
// informed vertices (the frontier growth).
func (f *FrontierState) Step(round []graph.Arc) int {
	oracleShadow.Lock()
	defer oracleShadow.Unlock()
	if len(oracleShadow.bits) < len(f.informed) {
		oracleShadow.bits = make(bitset, len(f.informed))
	}
	prev := oracleShadow.bits
	copy(prev, f.informed)
	gained := 0
	for _, a := range round {
		if prev.has(a.From) && !f.informed.has(a.To) {
			f.informed.set(a.To)
			gained++
		}
	}
	f.know += gained
	return gained
}
