// Package repro reproduces "Lower bounds on systolic gossip" by Michele
// Flammini and Stéphane Pérennès (IPPS 1997; journal version Information and
// Computation 196, 2005).
//
// The public API is the top-level systolic package (repro/systolic): a
// self-registering topology catalog instantiated from named parameters, a
// resumable zero-allocation simulation engine (NewEngine/Session with
// Step/Run/Snapshot/Restore and JSON checkpoints, rounds sharded on one
// process-wide worker runtime on large networks), option-based context-aware one-shot wrappers
// (Analyze/Simulate/AnalyzeBroadcast) with JSON-serializable Report/Bound
// results, and a parallel sweep engine (SweepStream streams results as jobs
// finish; Sweep returns them in deterministic job order). On top of it sits
// the serving layer repro/systolic/serve — an HTTP JSON service (cmd/gossipd)
// with canonical request keys (RequestKey), a sharded result cache,
// singleflight deduplication, a bounded worker pool, async jobs and
// Prometheus-style metrics. See README.md for a quickstart.
//
// The substrates live under internal/: the delay-digraph machinery
// (internal/delay), the numeric lower-bound solvers (internal/bounds), the
// topology generators (internal/topology), the gossip protocol model and
// simulator (internal/gossip), concrete protocol constructions
// (internal/protocols), separator constructions (internal/separator) and
// the linear-algebra substrate (internal/matrix). The benchmark harness in
// bench_test.go regenerates every table and figure of the paper; see
// DESIGN.md for the experiment index and EXPERIMENTS.md for
// paper-vs-measured values.
package repro
