// Package topology generates the interconnection networks studied by the
// paper — Butterfly BF(d,D), Wrapped Butterfly WBF(d,D) (directed and
// undirected), de Bruijn DB(d,D), Kautz K(d,D) — plus the classical networks
// used as simulation substrates and baselines (paths, cycles, complete
// graphs, grids, tori, hypercubes, complete d-ary trees, shuffle-exchange,
// cube-connected cycles).
//
// All generators return *graph.Digraph instances on vertices 0..n-1 together
// with label codecs mapping vertex ids to the structured labels of the paper
// (digit strings and levels). Digits are 0-based (the paper uses {1,…,d};
// the relabeling is an isomorphism).
//
// # Generator-eligible families
//
// Seven families additionally ship arithmetic graph.ArcSource generators
// (generators.go) that compute a vertex's neighbors from its id alone, so
// broadcast scans can stream instances far past what materialized arc
// slices fit in memory:
//
//   - hypercube — HypercubeGen (also graph.OrGatherer)
//   - cycle — CycleGen (also graph.OrGatherer)
//   - torus — TorusGen (also graph.OrGatherer)
//   - ccc — CCCGen (also graph.OrGatherer)
//   - butterfly — ButterflyGen
//   - de Bruijn, directed and undirected — DeBruijnGen
//   - Kautz, directed and undirected — KautzGen
//
// For these families the materialized form is the generator, drained:
// Hypercube, NewKautz and the other builders are graph.MaterializeSource
// over it, so both representations share one vertex numbering and one arc
// set by construction, and scans over either are byte-identical. Reference
// builders in oracle_test.go pin the generators arc for arc. The remaining
// families stay materialize-only: paths/grids/trees/stars are cheap and
// small in practice, complete graphs are quadratic by nature (the systolic
// registry rejects absurd sizes with ErrBadParam), shuffle-exchange merges
// parallel shuffle/exchange edges (its neighbor lists are not uniform
// arithmetic), and the wrapped butterfly's level-wrap duplicates arcs at
// D = 2 — both could grow generators later with per-vertex dedup like
// DeBruijnGen's, but nothing at their useful sizes needs streaming yet.
//
// # Schedule-generator eligibility
//
// Streaming a flooding scan needs only arcs; running a periodic protocol
// needs rounds — a proper edge coloring whose class c partners are
// computable from the vertex id (schedules.go, ExchangeClasses). Five
// families carry one:
//
//   - hypercube — HypercubeClasses: class c flips bit c (dimension order)
//   - cycle — CycleClasses: odd/even stride matchings (2 or 3 classes)
//   - torus — TorusClasses: cycle matchings per axis
//   - ccc — CCCClasses: cycle matchings on the rings plus the cube class
//   - butterfly — ButterflyClasses: straight and cross matchings per level
//
// For those, Schedule derives the periodic-full/-half/-interleaved
// protocols as graph.RoundSources and the schedule compiler
// (gossip.CompileGen) executes them without materializing anything, so
// the systolic catalog compiles their canonical protocols on implicit
// instances. A step asks a class for its receive set 64 destinations per
// word (ExchangeWords, under the orientation of a half-duplex round):
//
//   - hypercube — a word lookup for dimensions ≥ 6, an in-word bit swap
//     below; "bit c of v is set" is the low→high orientation mask
//   - cycle, torus, ccc, butterfly (and the directed CycleTwoPhase) —
//     partner ids from PartnerChunk (SenderChunk) packed into words by
//     packWords
//
// PartnerChunk and SenderChunk remain for materializing and
// fingerprinting a schedule, which need the sender ids. De Bruijn and Kautz graphs
// are scan-eligible but NOT schedule-eligible: their matching partition
// comes from graph.GreedyEdgeColoring, which orders edges by the built
// arc slice — the classes are data-dependent, not arithmetic — so their
// periodic protocols keep requiring the materialized digraph, and the
// systolic layer answers ErrImplicit (naming the eligible set) when one
// is requested on an implicit instance.
package topology
