package gossip

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/graph"
)

// This file holds the generator-compiled schedule program: the streaming
// counterpart of the CSR Program for periodic protocols whose rounds are
// arithmetic in the vertex id (dimension-order hypercube exchange, stride
// rounds on cycles and tori, …). A GenProgram never materializes an arc:
// each round's receive set is recomputed from a graph.RoundSource, 64
// destinations per word, as the step walks the frontier, so memory per
// worker is the frontier words plus one fixed chunk of receive words —
// independent of the arc count, which is what lets a d=24 hypercube
// broadcast simulate in a few hundred MiB where its CSR Program alone
// would need ~6 GiB. Execution is differential-pinned byte-identical to
// StepProgram over the Compile of Materialize().

// genChunkWords is the number of destination words a step asks its round
// source for at a time: GenChunkVerts destinations.
const genChunkWords = graph.GenChunkVerts / 64

// GenProgram is an immutable compiled schedule over a generator: the
// round → sender map of a periodic protocol, plus the mode and period that
// identify it. One GenProgram is shared by every worker of a simulation;
// the mutable per-worker scratch lives in GenRun.
type GenProgram struct {
	rs     graph.RoundSource
	mode   Mode
	n      int
	period int

	arcsOnce sync.Once
	arcs     []int // arcs per round, see roundArcs
	fpOnce   sync.Once
	fp       string
}

// CompileGen lowers a generator-backed periodic schedule into a GenProgram.
// The round source must describe a systolic protocol (period >= 1) whose
// rounds are matchings or isolated opposite pairs — the shapes Compile
// admits, which every schedule generator in internal/topology guarantees
// by construction and StepGenProgram relies on to read live bits.
//
//gossip:allowpanic compile-time guard: schedule generators guarantee period >= 1 by construction
func CompileGen(rs graph.RoundSource, mode Mode) *GenProgram {
	if rs.Rounds() < 1 {
		panic(fmt.Sprintf("gossip: generator schedule has period %d, want >= 1", rs.Rounds()))
	}
	return &GenProgram{rs: rs, mode: mode, n: rs.N(), period: rs.Rounds()}
}

// N returns the vertex count the program was compiled for.
func (g *GenProgram) N() int { return g.n }

// Period returns the schedule period.
func (g *GenProgram) Period() int { return g.period }

// Mode returns the communication mode the schedule was compiled under.
func (g *GenProgram) Mode() Mode { return g.mode }

// Source returns the underlying round source.
func (g *GenProgram) Source() graph.RoundSource { return g.rs }

// RoundArcs counts the arcs round r (mod the period) streams — destinations
// with a sender. The counts of every round are computed on first use and
// memoized.
func (g *GenProgram) RoundArcs(r int) int {
	if r < 0 {
		return 0
	}
	return g.roundArcs()[r%g.period]
}

// roundArcs returns the arc count of every round: the popcount of the
// round's receive words when every vertex is informed. ReceiveWords keeps
// the bits past n clear, so the all-ones set needs no tail mask.
func (g *GenProgram) roundArcs() []int {
	g.arcsOnce.Do(func() {
		all := newBitset(g.n)
		for i := range all {
			all[i] = ^uint64(0)
		}
		recv := make([]uint64, genChunkWords)
		g.arcs = make([]int, g.period)
		for r := range g.arcs {
			for wlo := 0; wlo < len(all); wlo += genChunkWords {
				whi := min(wlo+genChunkWords, len(all))
				g.rs.ReceiveWords(r, wlo, whi, all, recv)
				g.arcs[r] += bitset(recv[:whi-wlo]).count()
			}
		}
	})
	return g.arcs
}

// Fingerprint returns the schedule identity: the same FNV-1a hash
// Protocol.Fingerprint computes over the materialized rounds, streamed
// from the generator in destination-major order. It equals
// Materialize().Fingerprint() by construction, so checkpoints and caches
// keyed by fingerprint are interchangeable between the generator-compiled
// and CSR-compiled forms of one schedule. The hash is computed on first
// use (two generator passes per round) and memoized.
func (g *GenProgram) Fingerprint() string {
	g.fpOnce.Do(func() { g.fp = g.fingerprint() })
	return g.fp
}

// FNV-1a constants, matching hash/fnv's 64-bit variant.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvWord folds an integer into h exactly as Protocol.Fingerprint's
// little-endian 8-byte write does.
func fnvWord(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	return h
}

func (g *GenProgram) fingerprint() string {
	h := uint64(fnvOffset64)
	h = fnvWord(h, uint64(g.mode))
	h = fnvWord(h, uint64(g.period))
	h = fnvWord(h, uint64(g.period)) // len(Rounds) of the materialized protocol
	buf := make([]int32, graph.GenChunkVerts)
	for r, arcs := range g.roundArcs() {
		h = fnvWord(h, uint64(arcs))
		for lo := 0; lo < g.n; lo += graph.GenChunkVerts {
			for i, s := range g.senders(r, lo, buf) {
				if s >= 0 {
					h = fnvWord(h, uint64(s))
					h = fnvWord(h, uint64(lo+i))
				}
			}
		}
	}
	return fmt.Sprintf("%016x", h)
}

// Materialize expands the program into the explicit Protocol it streams:
// round r holds one arc sender → v per informed destination, in ascending
// destination order. The result compiles to the CSR Program the
// differential tests pin StepGenProgram against, and is how the protocol
// catalog builds schedule-generator protocols on materialized networks.
func (g *GenProgram) Materialize() *Protocol {
	buf := make([]int32, graph.GenChunkVerts)
	rounds := make([][]graph.Arc, g.period)
	for r, arcs := range g.roundArcs() {
		round := make([]graph.Arc, 0, arcs)
		for lo := 0; lo < g.n; lo += graph.GenChunkVerts {
			for i, s := range g.senders(r, lo, buf) {
				if s >= 0 {
					round = append(round, graph.Arc{From: int(s), To: lo + i})
				}
			}
		}
		rounds[r] = round
	}
	return &Protocol{Rounds: rounds, Period: g.period, Mode: g.mode}
}

// senders returns the senders of round r's destinations from lo to the
// end of lo's chunk, in buf (GenChunkVerts long).
func (g *GenProgram) senders(r, lo int, buf []int32) []int32 {
	hi := min(lo+graph.GenChunkVerts, g.n)
	buf = buf[:hi-lo]
	g.rs.SenderChunk(r, lo, hi, buf)
	return buf
}

// GenRun is the per-worker execution scratch of a GenProgram: one chunk of
// receive words. One GenRun per worker; the GenProgram itself is shared
// and immutable. Allocation happens here, once — the subsequent stepping
// performs zero allocations.
type GenRun struct {
	prog *GenProgram
	recv []uint64 // receive-word scratch, genChunkWords long
}

// NewGenRun returns worker-private scratch for g.
func NewGenRun(g *GenProgram) *GenRun {
	return &GenRun{prog: g, recv: make([]uint64, genChunkWords)}
}

// Program returns the compiled program the scratch belongs to.
func (gr *GenRun) Program() *GenProgram { return gr.prog }

// StepGenProgram applies execution round i of a generator-compiled program
// to the packed broadcast frontier and returns the number of newly
// informed vertices. It is byte-identical to StepProgram(Compile(
// Materialize()), i): an arc sender → v informs v iff sender was informed
// at the beginning of the round. The step asks the round source for a
// chunk of receive words at a time and merges each word into the
// frontier in place. The rounds are matchings or opposite pairs, so a
// vertex informed earlier in the same round sends nothing to an
// uninformed vertex: the live bits a later chunk reads are its
// beginning-of-round bits wherever they matter.
//
//gossip:allowpanic pairing guard: the session layer establishes program/state compatibility
//gossip:hotpath
func (f *FrontierState) StepGenProgram(gr *GenRun, i int) int {
	g := gr.prog
	if g.n != f.n {
		panic(fmt.Sprintf("gossip: generator program compiled for n=%d executed on frontier n=%d", g.n, f.n))
	}
	if i < 0 {
		return 0
	}
	r := i % g.period
	cur := f.informed
	gained := 0
	for wlo := 0; wlo < len(cur); wlo += len(gr.recv) {
		recv := gr.recv[:min(len(gr.recv), len(cur)-wlo)]
		g.rs.ReceiveWords(r, wlo, wlo+len(recv), cur, recv)
		for j, x := range recv {
			nb := x &^ cur[wlo+j]
			cur[wlo+j] |= nb
			gained += bits.OnesCount64(nb)
		}
	}
	f.know += gained
	return gained
}
