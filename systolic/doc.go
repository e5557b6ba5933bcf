// Package systolic is the public API of the systolic-gossip reproduction
// ("Lower bounds on systolic gossip", Flammini & Pérennès, IPPS 1997).
//
// It exposes the paper's machinery through four pillars:
//
//   - A self-registering topology catalog. Every network family is a
//     Topology registered under a kind name and instantiated from named
//     parameters instead of ambiguous positional pairs:
//
//     net, err := systolic.New("debruijn", systolic.Degree(2), systolic.Diameter(5))
//
//     Third-party families plug in via Register without touching this
//     package.
//
//   - A resumable simulation engine. NewEngine validates a protocol on a
//     network and returns a *Session that can be stepped in arbitrary
//     chunks, observed mid-flight, snapshotted to a JSON checkpoint,
//     restored and resumed deterministically:
//
//     sess, err := systolic.NewEngine(net, p)
//     for !sess.Done() {
//     _, err = sess.Step(ctx, 100)        // 100 rounds at a time
//     fmt.Println(sess.Rounds(), sess.Knowledge(), sess.Target())
//     }
//     ck := sess.Snapshot()               // JSON-serializable checkpoint
//
//     Underneath, NewEngine compiles the validated schedule once into a
//     flat program IR (precomputed word offsets, fused full-duplex
//     exchanges) that every execution layer shares; a compiled round never
//     has two ops on one vertex, so each op merges live words in place.
//     CompileProtocol exposes the compiled Program so callers that run one
//     schedule many times — the serving layer's program cache — can build
//     sessions with NewEngineFromProgram and skip validate+compile
//     entirely. Knowledge lives in one flat word array — a steady-state
//     Step allocates nothing — and sessions on networks with at least
//     DefaultShardThreshold vertices cut each round into WithWorkers
//     shares, byte-identical to serial. Every fan-out in the library runs
//     on one worker runtime: the caller plus the free ones of GOMAXPROCS
//     helper goroutines parked for the life of the process, so however
//     many callers fan out, the library adds at most GOMAXPROCS goroutines
//     of computation; WithWorkers only caps a fan-out's width. Session.Frontier reports the
//     per-round newly-informed counts; NewBroadcastEngine runs broadcasts
//     on a packed one-bit-per-vertex frontier backend.
//
//   - A unified certification pipeline. Certify (and Session.Certify) runs
//     a protocol and returns a typed Certificate: the measured rounds, the
//     delay-digraph statistics of the executed prefix, ‖M(λ₀)‖ against its
//     Lemma 4.3/6.1 cap, the evaluated lower bound, and the Theorem 4.1
//     verdict — with budget-truncated runs reported as Complete=false and
//     the verdicts marked inapplicable rather than vacuously true. The
//     delay analysis mirrors the execution compiler: CompileDelayPlan (or
//     Program.DelayPlan) lowers the per-round activation structure once
//     into a DelayPlan whose per-round-count instances are memoized and
//     whose M(λ) evaluations reuse preallocated CSR/scratch storage — zero
//     steady-state allocations in the λ loop. Hand a shared plan to
//     sessions with WithDelayPlan; paired with NewEngineFromProgram a
//     repeated certification rebuilds nothing.
//
//     cert, err := systolic.Certify(ctx, net, p)
//
//     Simulate, Analyze and AnalyzeBroadcast remain as option-based,
//     context-aware one-shot conveniences; Analyze and AnalyzeBroadcast
//     are thin views over the certificate (a truncated run surfaces as
//     ErrIncomplete there). All honour context cancellation and the
//     WithRoundBudget/WithTrace options:
//
//     rep, err := systolic.Analyze(ctx, net, p, systolic.WithRoundBudget(100000))
//
//     The returned Certificate, Report and Bound types are
//     JSON-serializable and shared by the CLIs, the benchmarks and the
//     golden tests.
//
//   - A parallel sweep engine. SweepStream fans a grid of (topology ×
//     protocol) evaluations across up to WithWorkers workers (GOMAXPROCS
//     by default) and streams results as jobs complete; Sweep is its barrier
//     counterpart, returning results in deterministic job order so parallel
//     runs are byte-identical to serial ones.
//
// Lower bounds are evaluated with Evaluate (Corollary 4.4, Theorem 5.1 and
// the Section 6 full-duplex bounds, with the Lemma 3.1 separator parameters
// filled in automatically for the families the paper studies) and
// GeneralBound (the bare e(s) coefficients of Fig. 4).
//
// Serving layers cache analysis results under canonical request identities:
// RequestKey folds an operation, kind, the sorted named parameters, the
// protocol and the budget/source into a stable key (SweepKey chains per-job
// keys for grids), with the guarantee that equal keys produce identical
// reports. The repro/systolic/serve package (cmd/gossipd) builds its result
// cache and request deduplication on exactly this. AnalyzeBroadcastAll
// measures the flooding broadcast time — the source's directed
// eccentricity — from every source (or a WithSources subset) in one scan:
// flooding is source-independent, so the schedule lowers once and the
// bit-parallel kernel steps 64 sources per pass through it, one bit per
// (vertex, source) pair.
package systolic
