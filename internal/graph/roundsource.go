package graph

// RoundSource is a generator-backed periodic schedule: the implicit
// counterpart of an explicit protocol's round list. Implementations compute
// who informs a vertex in a given round arithmetically from the vertex id
// (hypercube round r exchanges along dimension r mod d; cycle and torus
// rounds are fixed strides), so executing a schedule over a RoundSource
// never holds an arc slice in memory — the seam that lets the schedule
// compiler run periodic protocols on networks whose CSR Program would not
// fit in RAM.
//
// Contract: Sender(r, v) returns the vertex that informs v in round
// r (mod Rounds()), or -1 when v receives nothing that round. Because the
// paper's rounds are matchings (each processor talks to at most one
// neighbor per round), a single sender per destination is fully general;
// full-duplex exchanges appear as mutual sender pairs (Sender(r, u) == v
// and Sender(r, v) == u). Sender is the scalar reference the tests hold
// the two bulk forms to:
//
//   - SenderChunk is the same map a chunk of destinations at a time, for
//     the callers that need sender ids (materializing and fingerprinting
//     a schedule).
//   - ReceiveWords is the word form the schedule step executes: over a
//     one-bit-per-vertex set (bit v%64 of word v/64), it yields the
//     destinations whose sender is in the set, 64 destinations per word.
//     Arithmetic families compute it with shifts and masks on whole words
//     (a hypercube round is a word lookup or an in-word bit swap).
//
// Results must be deterministic and implementations safe for concurrent
// use (one RoundSource is shared by every worker of a sharded step) and
// allocation-free (the schedule steps are //gossip:hotpath).
type RoundSource interface {
	// N returns the number of vertices.
	N() int
	// Rounds returns the schedule period (>= 1).
	Rounds() int
	// Sender returns the vertex that informs v in round r, or -1.
	// r must lie in [0, Rounds()); callers reduce absolute round numbers
	// modulo the period first.
	Sender(r, v int) int
	// SenderChunk writes Sender(r, v) into out[v-lo] for each v in
	// [lo, hi). len(out) >= hi-lo.
	SenderChunk(r, lo, hi int, out []int32)
	// ReceiveWords writes, for each destination word w in [wlo, whi), the
	// set of destinations v in w whose round-r sender is in informed into
	// out[w-wlo]: bit v%64 is set iff Sender(r, v) >= 0 and informed has
	// bit Sender(r, v). informed holds ⌈N()/64⌉ words; out's bits at or
	// above N() are 0 whatever informed holds there. len(out) >= whi-wlo.
	ReceiveWords(r, wlo, whi int, informed, out []uint64)
}
