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
// round, so a step reads only beginning-of-round state; StepFloodGen
// performs zero allocations.
type PackedFrontier struct {
	n     int
	lanes int
	full  uint64   // mask of the active lanes
	cur   []uint64 // bit s of word v: vertex v informed in lane s
	next  []uint64 // write buffer for the upcoming step
}

// NewPackedFrontier returns a packed frontier for an n-vertex network with
// no loaded batch; Reset loads one.
func NewPackedFrontier(n int) *PackedFrontier {
	words := make([]uint64, 2*n) // both buffers in one allocation
	return &PackedFrontier{n: n, cur: words[:n:n], next: words[n:]}
}

// Reset loads a batch without reallocating: lane i broadcasts from
// sources[i], so after the call exactly the source bits are set. Scans
// reuse one PackedFrontier across all ⌈sources/64⌉ batches.
//
//gossip:allowpanic range guard: batches come from the scan driver, which validates sources
func (f *PackedFrontier) Reset(sources []int) {
	if len(sources) == 0 || len(sources) > PackedLanes {
		panic(fmt.Sprintf("gossip: packed batch of %d sources (want 1..%d)", len(sources), PackedLanes))
	}
	clear(f.cur)
	for i, s := range sources {
		if s < 0 || s >= f.n {
			panic(fmt.Sprintf("gossip: packed source %d out of range n=%d", s, f.n))
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
