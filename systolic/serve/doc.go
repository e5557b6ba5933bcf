// Package serve is the HTTP serving layer of the reproduction: a
// long-running JSON service (gossipd) that multiplexes many concurrent
// analyze/broadcast/sweep requests over the systolic engine.
//
// # Architecture
//
// Every request is normalized into a canonical cache key
// (systolic.RequestKey: operation, kind, sorted params, protocol, budget,
// source). Results are served through a sharded LRU cache; concurrent
// identical requests coalesce onto one underlying simulation (a
// reference-counted singleflight whose computation is cancelled only when
// every subscribed client has disconnected). The simulations themselves run
// on Config.Workers slots with a bounded wait queue — beyond
// Config.QueueDepth waiters the server answers 429. Config.Workers bounds
// how many computations run at once; the fan-outs inside them (sharded
// rounds, scan batches, scenario trials, sweep jobs) share the library's
// GOMAXPROCS parked helpers, so a full server runs at most Workers
// computing goroutines plus those helpers.
//
// Behind the result cache sits a second sharded LRU of compiled programs:
// an analyze that misses the result cache looks up its schedule (keyed by
// kind, params, protocol and budget — source- and operation-independent) in
// the program cache and, on a hit, starts its session from the cached
// network + compiled schedule IR (systolic.Program via
// NewEngineFromProgram), skipping topology build, protocol construction,
// validation and compilation entirely; only a cold schedule pays the full
// build→validate→compile pipeline, once. Compiled programs are immutable
// and shared by any number of concurrent sessions. Config.ProgramCacheSize
// bounds the cache; the gossipd_program_cache_hits_total /
// gossipd_program_cache_misses_total counters on /metrics (and the
// program_entries gauge on /healthz) expose its behavior.
//
// # Wire schema
//
// POST /v1/analyze — analyze one protocol on one topology:
//
//	{"kind": "debruijn", "params": {"degree": 2, "diameter": 5},
//	 "protocol": "periodic-half", "budget": 100000}
//
// responds with an envelope around the systolic.Report JSON schema (pinned
// by the systolic golden tests):
//
//	{"key": "analyze|debruijn|degree=2,diameter=5|periodic-half|100000|-1",
//	 "cached": false, "report": {"network": "DB(2,5)", ...}}
//
// With ?async=true the response is 202 {"id", "status_url"} and the job is
// polled via GET /v1/jobs/{id}. An async analyze that exhausts its round
// budget persists a session checkpoint (the systolic.Checkpoint JSON schema,
// written through Snapshot/WriteCheckpoint) into the spool directory and
// finishes with status "incomplete", so the run can be resumed offline with
// a higher budget.
//
// POST /v1/certify — run the certification pipeline on one protocol and
// topology (the same request shape as /v1/analyze):
//
//	{"kind": "hypercube", "params": {"dimension": 12},
//	 "protocol": "hypercube", "budget": 100000}
//
// responds with an envelope around the systolic.Certificate JSON schema —
// the measured rounds plus every applicable verdict of the paper's
// lower-bound machinery:
//
//	{"key": "certify|hypercube|dimension=12|hypercube|100000|-1",
//	 "cached": false,
//	 "report": {"network": "hypercube-12", "mode": "full-duplex",
//	  "period": 12, "complete": true, "measured_rounds": 12,
//	  "budget": 100000, "lower_bound": {...}, "delay_verts": 49152,
//	  "delay_arcs": 540672, "lambda": 0.5790, "norm_at_root": 0.9999,
//	  "norm_cap": 1, "norm_checked": true, "norm_respected": true,
//	  "theorem_applicable": true, "theorem_respected": true}}
//
// A budget-truncated run is NOT an error here (unlike /v1/analyze's 422):
// the certificate comes back 200 with "complete": false, the delay digraph
// of the executed prefix, and the theorem verdicts marked inapplicable.
// Certifications ride the same program cache as analyses and additionally a
// delay-plan cache (Config.DelayPlanCacheSize, keyed like programs) holding
// each schedule's compiled delay lowering, so a repeated certification
// rebuilds neither the execution schedule nor the delay digraph; the
// gossipd_delay_plan_cache_hits_total / _misses_total counters on /metrics
// (and the plan_entries gauge on /healthz) expose the cache.
// ?async=true submits a job like /v1/analyze (without checkpointing —
// truncation is a result, not a failure).
//
// A "scenario" block turns the certification into a Monte-Carlo run of the
// same compiled schedule under a deterministic fault model:
//
//	{"kind": "hypercube", "params": {"dimension": 10},
//	 "protocol": "periodic-full",
//	 "scenario": {"loss": 0.05, "seed": 1, "trials": 256,
//	  "arc_loss": [{"from": 1, "to": 2, "loss": 0.25}],
//	  "crashes": [{"node": 3, "from": 4, "to": 9}],
//	  "delete_arcs": [[5, 6]]}}
//
// loss is the uniform per-arc per-round delivery loss probability;
// arc_loss overrides it for named arcs; crashes silences a node for the
// half-open round window [from, to); delete_arcs removes arcs outright.
// The seed is part of the cache identity: every trial derives its own
// splitmix64 stream from (seed, trial index), so identical requests replay
// the identical distribution regardless of worker count, and changing only
// the seed is a distinct cache entry (the key grows a
// "|scenario{...}|trials=N" suffix — systolic.ScenarioKey — so scenario
// and plain certifications can never collide). trials defaults to 64 and
// is capped at systolic.MaxScenarioTrials.
//
// The response envelope wraps the systolic.StatisticalCertificate schema:
// the deterministic baseline certificate ("deterministic"), the paper's
// lower bound ("lower_bound"), and the trial statistics —
//
//	{"report": {"network": "hypercube-10", "mode": "full-duplex",
//	 "period": 10, "budget": 100000,
//	 "scenario": {"loss": 0.05, "seed": 1},
//	 "lower_bound": {...}, "deterministic": {...},
//	 "trials": {"trials": 256, "completed": 256, "truncated": 0,
//	  "completion_rate": 1, "mean_rounds": 12.4, "min_rounds": 11,
//	  "max_rounds": 16, "p50": 12, "p90": 14, "p99": 15,
//	  "distribution_fp": 1234567890},
//	 "bound_respected": true, "mean_drift_rounds": 2.4}}
//
// bound_respected compares the measured median against the deterministic
// lower bound; mean_drift_rounds is the mean completion round minus the
// deterministic run's. Trials that exhaust the round budget are censored,
// not errors: they are counted in "truncated" (and excluded from the
// quantiles), and an async scenario job finishes "done" with those counts
// in its result rather than failing. distribution_fp fingerprints the
// per-trial outcome vector, so cached replays are verifiably identical.
// The gossipd_scenario_trials_total / _truncated_total counters on
// /metrics expose trial volume.
//
// POST /v1/broadcast — measure broadcast times. A single-source request
// simulates the BFS-tree whispering schedule from that source:
//
//	{"kind": "hypercube", "params": {"dimension": 6}, "source": 0}
//
// and responds with a systolic.BroadcastReport envelope. A request
// carrying a sources block instead runs a flooding scan — the bit-parallel
// kernel steps up to 64 sources at once through the network's one shared
// flooding schedule, so each measured time is the source's directed
// eccentricity — and responds with a systolic.BroadcastAllReport:
//
//	{"kind": "hypercube", "params": {"dimension": 6},
//	 "sources": {"all": true}}
//	{"kind": "hypercube", "params": {"dimension": 6},
//	 "sources": {"list": [0, 5, 9]}}
//
// Exactly one of "all" and "list" must be set; the list is canonicalized
// (sorted, deduplicated) before scanning and keying, and the report's
// "sources" field echoes the canonical form ("rounds_by_source" aligns
// with it). The older "all_sources": true boolean is deprecated but still
// accepted: it canonicalizes to {"sources": {"all": true}} — same
// behavior, same cache key — so results cached before the sources block
// existed keep replaying. The gossipd_broadcast_sources_total counter on
// /metrics tracks how many sources the scans have measured.
//
// POST /v1/sweep — a grid of analyze jobs:
//
//	{"budget": 200000, "jobs": [
//	  {"label": "db", "kind": "debruijn",
//	   "params": {"degree": 2, "diameter": 5}, "protocol": "periodic-half"},
//	  {"kind": "kautz", "params": {"degree": 2, "diameter": 4},
//	   "protocol": "periodic-full"}]}
//
// streams one JSON line per job (Content-Type application/x-ndjson) in
// completion order, each line carrying its grid index:
//
//	{"index": 1, "label": "kautz/periodic-full", "network": "K(2,4)",
//	 "n": 24, "report": {...}}
//	{"index": 0, "label": "db", "network": "DB(2,5)", "n": 32,
//	 "report": {...}}
//
// A client that disconnects mid-stream detaches from the computation; when
// the last client detaches, the sweep's context is cancelled and the worker
// freed. Completed sweeps are cached whole and replayed in job order.
// ?async=true submits the sweep as a job instead.
//
// GET /v1/jobs/{id} — poll an async job:
//
//	{"id": "j0123456789abcdef", "op": "sweep", "status": "done",
//	 "created": "...", "started": "...", "finished": "...",
//	 "results": [...]}
//
// status is queued | running | done | failed | incomplete. With a spool
// directory configured, terminal jobs persist as <id>.json and survive both
// memory eviction and process restarts.
//
// GET /v1/kinds — the topology and protocol catalogs:
//
//	{"topologies": [{"kind": "debruijn", "params": ["degree", "diameter"]},
//	  ...],
//	 "protocols": ["cycle2", "doubling", ...]}
//
// GET /healthz — liveness plus load: {"status": "ok" | "draining",
// "version" (Config.Version, "dev" when unset), "uptime_seconds",
// "inflight", "queued", "cache_entries", "program_entries",
// "plan_entries"}.
//
// GET /metrics — Prometheus text format: requests by endpoint, cache
// hits/misses and hit ratio, program-cache hits/misses, delay-plan-cache
// hits/misses, dedup shares, simulations run, rounds simulated, scenario
// trials run and truncated, queue rejections, in-flight sessions, queue
// depth.
//
// # Errors
//
// Validation failures are 400 with {"error": "..."}; a saturated queue is
// 429 (Retry-After: 1); a round budget exceeded synchronously is 422; a
// draining server answers 503 to computation-starting requests while
// read-only endpoints keep serving. Graceful shutdown is Drain (stop
// accepting, wait for in-flight sessions) followed by Close.
package serve
