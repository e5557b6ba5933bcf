package systolic

import (
	"errors"
	"fmt"

	"repro/internal/gossip"
)

var (
	// ErrUnknownTopology is returned by New and Lookup for a kind that is
	// not in the registry; the error text lists the registered kinds.
	ErrUnknownTopology = errors.New("systolic: unknown topology")
	// ErrBadParam is returned when a topology parameter is missing, out of
	// range, or would produce an unreasonably large instance.
	ErrBadParam = errors.New("systolic: bad topology parameter")
	// ErrUnknownProtocol is returned by NewProtocol for a name that is not
	// in the protocol catalog.
	ErrUnknownProtocol = errors.New("systolic: unknown protocol")
	// ErrIncomplete is returned when a simulation hits its round budget
	// before dissemination completes.
	ErrIncomplete = gossip.ErrIncomplete
	// ErrBadCheckpoint is returned by Restore and ReadCheckpoint when a
	// checkpoint fails validation: wrong version, wrong network or
	// protocol, or internally inconsistent state. The wrapped text says
	// which check failed.
	ErrBadCheckpoint = errors.New("systolic: invalid checkpoint")
	// ErrWrongMode is returned when a report accessor is called on a
	// session of the other mode: Analyze on a broadcast session, or
	// AnalyzeBroadcast on a gossip session.
	ErrWrongMode = errors.New("systolic: wrong session mode")
	// ErrUnreachable is returned by AnalyzeBroadcastAll when some source
	// cannot reach every vertex, so no budget would ever complete the
	// broadcast (deliberately distinct from ErrIncomplete).
	ErrUnreachable = errors.New("systolic: source cannot reach every vertex")
	// ErrImplicit is returned when an operation that walks explicit
	// adjacency (protocol compilation, BFS schedules, delay digraphs,
	// bound evaluation) is invoked on an implicit network — one built past
	// the materialization threshold, carrying only an arithmetic
	// generator. AnalyzeBroadcastAll and CertifyBroadcast stream such
	// networks; everything else needs a materializable instance.
	ErrImplicit = errors.New("systolic: operation requires a materialized network")
	// ErrMemoryBudget is returned when a scan's estimated working memory
	// exceeds the WithMaxMemory cap on every available kernel.
	ErrMemoryBudget = errors.New("systolic: scan exceeds the memory budget")
	// ErrPanicked is the error of a sweep job whose network, protocol
	// builder or analysis panicked: the sweep recovers the panic into that
	// job's SweepResult.Err and runs the rest of the grid.
	ErrPanicked = errors.New("systolic: job panicked")
)

// errImplicitOp wraps ErrImplicit with the failing operation and network.
// The hint names what an implicit instance does support: the streaming
// broadcast scans, and the generator-compiled protocol subset on
// schedule-carrying kinds.
func errImplicitOp(op, name string) error {
	return fmt.Errorf("systolic: %s %s: %w (implicit instance; AnalyzeBroadcastAll and CertifyBroadcast stream it, and the cycle2, hypercube, periodic-full, periodic-half and periodic-interleaved protocols compile to generator programs on cycle, hypercube, torus, ccc and butterfly)", op, name, ErrImplicit)
}
