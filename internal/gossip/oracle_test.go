package gossip

import (
	"math/bits"

	"repro/internal/graph"
)

// The arc-slice interpreters: one round applied straight from its arcs,
// the reference semantics every compiled and generator kernel is
// differential-tested against. No library path steps raw arc slices, so
// they live with the tests as oracles.

// Step applies one communication round: for each active arc (x, y), y learns
// everything x knew at the beginning of the round. All transfers in a round
// are simultaneous; because rounds are matchings a vertex receives on at
// most one arc, but the interpreter is still correct for arbitrary arc
// sets (e.g. full-duplex opposite pairs): every sender's words are copied
// into the shadow buffer before any merge, so opposite arcs exchange the
// beginning-of-round sets as the model requires. It always runs serially,
// whatever pool is attached.
func (s *State) Step(round []graph.Arc) {
	w := s.words
	for _, a := range round {
		o := a.From * w
		copy(s.prev[o:o+w], s.cur[o:o+w])
	}
	for _, a := range round {
		src := s.prev[a.From*w : a.From*w+w]
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
	copy(f.prev, f.informed)
	gained := 0
	for _, a := range round {
		if f.prev.has(a.From) && !f.informed.has(a.To) {
			f.informed.set(a.To)
			gained++
		}
	}
	f.know += gained
	return gained
}
