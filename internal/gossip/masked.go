package gossip

// ArcFilter decides, per scheduled arc of one execution round, whether the
// transfer is delivered. It is the seam the scenario engine (message loss,
// node churn, adversarial arc deletion — repro/internal/scenario) injects
// faults through: the filter is consulted for every arc of the round in a
// fixed, documented order, so a deterministic filter yields a deterministic
// execution.
//
// The consultation order per round is: fused exchange ops in program order,
// each as keep(A, B) then keep(B, A); then the unfused arcs in program
// order. Both directions of a fused op are always consulted (even when the
// first returns false), so a filter driving a PRNG consumes an
// arc-set-determined amount of randomness regardless of earlier outcomes.
type ArcFilter func(from, to int32) bool

// StepProgramMasked applies execution round i of a compiled program with
// per-arc delivery decided by keep. With an always-true filter it is
// byte-identical to StepProgram (the differential tests pin this); a false
// return suppresses exactly that transfer — the receiver does not merge
// the sender's words — without disturbing any other arc of the round. No
// two ops of a compiled round share a vertex, so a dropped arc cannot
// change what another arc reads.
//
// Masked stepping is the serial merge loop with the filter (SetShards is
// ignored): the scenario engine parallelizes across Monte-Carlo
// trials, not within one faulty round, and a fixed serial order is what
// makes the filter's PRNG stream reproducible. Steady-state masked steps
// perform zero allocations.
//
//gossip:hotpath
func (s *State) StepProgramMasked(pr *Program, i int, keep ArcFilter) {
	s.checkProgram(pr)
	r := pr.roundIndex(i)
	if r < 0 {
		return
	}
	gained, newlyFull := s.merge(pr, r, 0, 1, keep)
	s.know += gained
	s.full += newlyFull
}
