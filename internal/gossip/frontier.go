package gossip

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// FrontierState is the broadcast-specialized knowledge tracker: it records
// only whether each vertex has been informed of the single broadcast item,
// packed one bit per vertex (n bits total instead of a word per vertex), and
// reports how the informed frontier grows round by round. A compiled round
// never has two ops on one vertex, so steps update the one bitset in place
// and perform zero allocations.
type FrontierState struct {
	n        int
	informed bitset // one bit per vertex
	know     int    // informed vertices
}

// NewFrontierState returns the broadcast state in which only source is
// informed.
func NewFrontierState(n, source int) *FrontierState {
	f := &FrontierState{n: n, informed: newBitset(n)}
	f.informed.set(source)
	f.know = 1
	return f
}

// Reset returns the state to "only source is informed" without reallocating:
// the bitset is cleared in place. Loops that measure broadcasts from many
// sources (eccentricity scans, all-sources analyses) reuse one FrontierState
// through Reset instead of paying a bitset allocation per source.
func (f *FrontierState) Reset(source int) {
	f.informed.clearAll()
	f.informed.set(source)
	f.know = 1
}

// Informed reports whether vertex v has the item.
func (f *FrontierState) Informed(v int) bool { return f.informed.has(v) }

// InformedCount returns how many vertices have the item.
func (f *FrontierState) InformedCount() int { return f.know }

// Complete reports whether every vertex has the item.
func (f *FrontierState) Complete() bool { return f.know == f.n }

// Export serializes the informed set as little-endian words, the payload of
// a broadcast session checkpoint.
func (f *FrontierState) Export() []byte {
	out := make([]byte, len(f.informed)*8)
	for i, w := range f.informed {
		binary.LittleEndian.PutUint64(out[i*8:], w)
	}
	return out
}

// Import restores an informed set serialized by Export, recomputing the
// informed count. Payloads of the wrong size or with bits beyond vertex
// n−1 are rejected.
func (f *FrontierState) Import(data []byte) error {
	if len(data) != len(f.informed)*8 {
		return fmt.Errorf("gossip: frontier payload is %d bytes, want %d", len(data), len(f.informed)*8)
	}
	know := 0
	for i := range f.informed {
		f.informed[i] = binary.LittleEndian.Uint64(data[i*8:])
		know += bits.OnesCount64(f.informed[i])
	}
	if tail := f.n % 64; tail != 0 {
		if f.informed[len(f.informed)-1]&^(1<<tail-1) != 0 {
			return fmt.Errorf("gossip: frontier payload has bits beyond vertex %d", f.n-1)
		}
	}
	f.know = know
	return nil
}
