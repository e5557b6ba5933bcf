package gossip

import (
	"fmt"
	"math/bits"
)

// PackedLanes is the number of broadcast sources one packed pass steps
// simultaneously: the 64 bits of a knowledge word.
const PackedLanes = 64

// PackedFrontier is the bit-parallel multi-source broadcast state: word v
// of the knowledge array holds, in bit s, whether vertex v has been
// informed by lane s's source. One flooding step ORs in-neighbor words
// into every vertex word, advancing up to 64 independent broadcasts at
// once — the exchange op is the same OR whether a word carries one
// source's frontier or sixty-four. The two buffers double-buffer the
// round, so a step reads only beginning-of-round state; StepFloodGen and
// StepFloodPush perform zero allocations.
//
// Between rounds the write buffer holds the previous round's words, which
// is what lets a round push from the vertices the last one changed
// instead of pulling into every vertex (see StepFloodPush).
type PackedFrontier struct {
	n     int
	lanes int
	full  uint64   // mask of the active lanes
	cur   []uint64 // bit s of word v: vertex v informed in lane s
	next  []uint64 // write buffer for the upcoming step

	// The push list: the vertices the last round changed, at most
	// PushCap of them. Word i of ids holds two vertex ids, entry i of the
	// list to push in the 32-bit half at shift half and entry i of the list
	// a push round builds in the other; delta[i] holds the pushed entry's
	// new bits. listed is the list's length, -1 when there is none.
	ids    []uint64
	delta  []uint64
	listed int
	half   uint
}

// PushDivisor fixes the flooding direction rule: a round pushes from the
// vertices the last round changed while they number at most n/PushDivisor,
// and pulls into every vertex otherwise (Beamer, Asanović & Patterson,
// SC'12). The list costs 16 bytes per entry, so 0.5 bytes per vertex.
const PushDivisor = 32

// NewPackedFrontier returns a packed frontier for an n-vertex network with
// no loaded batch; Reset loads one.
func NewPackedFrontier(n int) *PackedFrontier {
	c := n / PushDivisor
	words := make([]uint64, 2*n+2*c) // buffers and push list in one allocation
	return &PackedFrontier{n: n, cur: words[:n:n], next: words[n : 2*n : 2*n],
		ids: words[2*n : 2*n+c : 2*n+c], delta: words[2*n+c:], listed: -1}
}

// Reset loads a batch without reallocating: lane i broadcasts from
// sources[i], so after the call exactly the source bits are set, the write
// buffer is clear (the words before round 1) and the sources are listed
// for a first push round when they fit. Scans reuse one PackedFrontier
// across all ⌈sources/64⌉ batches.
//
//gossip:allowpanic range guard: batches come from the scan driver, which validates sources
func (f *PackedFrontier) Reset(sources []int) {
	if len(sources) == 0 || len(sources) > PackedLanes {
		panic(fmt.Sprintf("gossip: packed batch of %d sources (want 1..%d)", len(sources), PackedLanes))
	}
	clear(f.cur)
	clear(f.next)
	f.listed = 0
	for i, s := range sources {
		if s < 0 || s >= f.n {
			panic(fmt.Sprintf("gossip: packed source %d out of range n=%d", s, f.n))
		}
		if f.cur[s] == 0 {
			f.list(s)
		}
		f.cur[s] |= 1 << i
	}
	f.lanes = len(sources)
	if f.lanes == PackedLanes {
		f.full = ^uint64(0)
	} else {
		f.full = 1<<f.lanes - 1
	}
}

// list appends v to the list the next round pushes from, dropping the
// list when it is full.
func (f *PackedFrontier) list(v int) {
	if f.listed < 0 {
		return
	}
	if f.listed == len(f.ids) {
		f.listed = -1
		return
	}
	f.ids[f.listed] = uint64(v) << f.half
	f.listed++
}

// PushCap returns the most vertices a push round starts from: n/PushDivisor.
func (f *PackedFrontier) PushCap() int { return len(f.ids) }

// Listed reports whether the vertices the last round changed are listed,
// so the next round can push from them.
func (f *PackedFrontier) Listed() bool { return f.listed >= 0 }

// ListChanged lists the vertices whose word the last round changed, in one
// sequential pass over both buffers, so the next round pushes from them;
// when they exceed PushCap it leaves no list. A round that added at most
// PushCap informed pairs changed at most PushCap vertices.
func (f *PackedFrontier) ListChanged() {
	f.listed = 0
	prev := f.next[:len(f.cur)]
	for v, w := range f.cur {
		if w != prev[v] {
			if f.list(v); f.listed < 0 {
				return
			}
		}
	}
}

// Lanes returns the number of active lanes of the loaded batch.
func (f *PackedFrontier) Lanes() int { return f.lanes }

// Full returns the mask with one bit per active lane.
func (f *PackedFrontier) Full() uint64 { return f.full }

// Informed reports whether vertex v is informed in lane s.
func (f *PackedFrontier) Informed(v, lane int) bool { return f.cur[v]&(1<<lane) != 0 }

// InformedCount returns the current informed (vertex, lane) column count.
func (f *PackedFrontier) InformedCount() int {
	count := 0
	for _, w := range f.cur {
		count += bits.OnesCount64(w)
	}
	return count
}

// CompleteMask returns the lanes whose source currently reaches every
// vertex — the AND-fold over all vertex words, restricted to active lanes.
func (f *PackedFrontier) CompleteMask() uint64 {
	all := ^uint64(0)
	for _, w := range f.cur {
		all &= w
	}
	return all & f.full
}
