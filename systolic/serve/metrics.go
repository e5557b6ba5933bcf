package serve

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Metrics is the server's instrumentation: monotone counters plus a few
// gauges, exported in Prometheus text format on GET /metrics and as a
// Snapshot for programmatic checks (tests, /healthz, the loadtest driver).
// All methods are safe for concurrent use.
type Metrics struct {
	mu       sync.Mutex
	requests map[string]*atomic.Int64 // per-endpoint request counters

	cacheHits     atomic.Int64
	cacheMisses   atomic.Int64
	programHits   atomic.Int64 // analyses that reused a cached compiled program
	programMisses atomic.Int64 // analyses that had to build+validate+compile
	planHits      atomic.Int64 // certifications that reused a cached delay plan
	planMisses    atomic.Int64 // certifications that compiled their delay lowering
	dedupShared   atomic.Int64 // requests attached to an already-running flight
	simulations   atomic.Int64 // underlying simulations actually run
	rounds        atomic.Int64 // simulated rounds, via the trace observer
	rejected      atomic.Int64 // 429s from a saturated queue
	inflight      atomic.Int64 // computations currently running
	queued        atomic.Int64 // computations waiting for a worker
	jobsDone      atomic.Int64 // async jobs finished (any terminal status)
	panics        atomic.Int64 // computations that panicked and were recovered

	scenarioTrials    atomic.Int64 // Monte-Carlo scenario trials executed
	scenarioTruncated atomic.Int64 // scenario trials censored at their round budget

	broadcastSources atomic.Int64 // sources measured by broadcast scans
	implicitScans    atomic.Int64 // broadcast scans streamed on implicit (generator-only) networks
	implicitPrograms atomic.Int64 // generator programs compiled for implicit instances
}

func newMetrics() *Metrics {
	return &Metrics{requests: make(map[string]*atomic.Int64)}
}

func (m *Metrics) request(endpoint string) {
	m.mu.Lock()
	c := m.requests[endpoint]
	if c == nil {
		c = new(atomic.Int64)
		m.requests[endpoint] = c
	}
	m.mu.Unlock()
	c.Add(1)
}

// Snapshot is a point-in-time copy of every metric.
type Snapshot struct {
	Requests      map[string]int64 `json:"requests"`
	CacheHits     int64            `json:"cache_hits"`
	CacheMisses   int64            `json:"cache_misses"`
	ProgramHits   int64            `json:"program_cache_hits"`
	ProgramMisses int64            `json:"program_cache_misses"`
	PlanHits      int64            `json:"delay_plan_cache_hits"`
	PlanMisses    int64            `json:"delay_plan_cache_misses"`
	DedupShared   int64            `json:"dedup_shared"`
	Simulations   int64            `json:"simulations"`
	Rounds        int64            `json:"rounds_simulated"`
	Rejected      int64            `json:"rejected"`
	Inflight      int64            `json:"inflight"`
	Queued        int64            `json:"queued"`
	JobsDone      int64            `json:"jobs_done"`
	Panics        int64            `json:"panics"`

	ScenarioTrials    int64 `json:"scenario_trials"`
	ScenarioTruncated int64 `json:"scenario_trials_truncated"`

	BroadcastSources int64 `json:"broadcast_sources"`
	ImplicitScans    int64 `json:"implicit_scans"`
	ImplicitPrograms int64 `json:"implicit_programs"`
}

// HitRatio returns cache hits over cache-answerable lookups, 0 when none
// have happened yet.
func (s Snapshot) HitRatio() float64 {
	total := s.CacheHits + s.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}

// Snapshot copies every metric at one instant (counters are read
// individually; the snapshot is not atomic across metrics).
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{
		Requests:      make(map[string]int64),
		CacheHits:     m.cacheHits.Load(),
		CacheMisses:   m.cacheMisses.Load(),
		ProgramHits:   m.programHits.Load(),
		ProgramMisses: m.programMisses.Load(),
		PlanHits:      m.planHits.Load(),
		PlanMisses:    m.planMisses.Load(),
		DedupShared:   m.dedupShared.Load(),
		Simulations:   m.simulations.Load(),
		Rounds:        m.rounds.Load(),
		Rejected:      m.rejected.Load(),
		Inflight:      m.inflight.Load(),
		Queued:        m.queued.Load(),
		JobsDone:      m.jobsDone.Load(),
		Panics:        m.panics.Load(),

		ScenarioTrials:    m.scenarioTrials.Load(),
		ScenarioTruncated: m.scenarioTruncated.Load(),

		BroadcastSources: m.broadcastSources.Load(),
		ImplicitScans:    m.implicitScans.Load(),
		ImplicitPrograms: m.implicitPrograms.Load(),
	}
	m.mu.Lock()
	for ep, c := range m.requests {
		s.Requests[ep] = c.Load()
	}
	m.mu.Unlock()
	return s
}

// WritePrometheus renders the metrics in the Prometheus text exposition
// format, the body of GET /metrics.
func (m *Metrics) WritePrometheus(w io.Writer) {
	s := m.Snapshot()
	eps := make([]string, 0, len(s.Requests))
	for ep := range s.Requests {
		eps = append(eps, ep)
	}
	sort.Strings(eps)
	fmt.Fprintf(w, "# HELP gossipd_requests_total Requests received, by endpoint.\n")
	fmt.Fprintf(w, "# TYPE gossipd_requests_total counter\n")
	for _, ep := range eps {
		fmt.Fprintf(w, "gossipd_requests_total{endpoint=%q} %d\n", ep, s.Requests[ep])
	}
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter("gossipd_cache_hits_total", "Requests answered from the result cache.", s.CacheHits)
	counter("gossipd_cache_misses_total", "Requests that missed the result cache.", s.CacheMisses)
	counter("gossipd_program_cache_hits_total", "Analyses that reused a cached compiled program.", s.ProgramHits)
	counter("gossipd_program_cache_misses_total", "Analyses that built, validated and compiled their schedule.", s.ProgramMisses)
	counter("gossipd_delay_plan_cache_hits_total", "Certifications that reused a cached compiled delay plan.", s.PlanHits)
	counter("gossipd_delay_plan_cache_misses_total", "Certifications that compiled their delay lowering.", s.PlanMisses)
	counter("gossipd_dedup_shared_total", "Requests coalesced onto an already-running identical computation.", s.DedupShared)
	counter("gossipd_simulations_total", "Underlying simulations actually run.", s.Simulations)
	counter("gossipd_rounds_simulated_total", "Communication rounds simulated across all sessions.", s.Rounds)
	counter("gossipd_rejected_total", "Requests rejected with 429 because the worker queue was full.", s.Rejected)
	counter("gossipd_jobs_done_total", "Async jobs that reached a terminal status.", s.JobsDone)
	counter("gossipd_panics_total", "Computations that panicked; each answered 500 or failed its job.", s.Panics)
	counter("gossipd_scenario_trials_total", "Monte-Carlo scenario trials executed.", s.ScenarioTrials)
	counter("gossipd_scenario_trials_truncated_total", "Scenario trials censored at their round budget.", s.ScenarioTruncated)
	counter("gossipd_broadcast_sources_total", "Sources measured by all-sources/subset broadcast scans.", s.BroadcastSources)
	counter("gossipd_implicit_scans_total", "Broadcast scans streamed on implicit (generator-only) networks.", s.ImplicitScans)
	counter("gossipd_implicit_programs_total", "Generator programs compiled for implicit instances.", s.ImplicitPrograms)
	gauge("gossipd_inflight_sessions", "Computations currently holding a worker.", s.Inflight)
	gauge("gossipd_queue_depth", "Computations waiting for a worker.", s.Queued)
	fmt.Fprintf(w, "# HELP gossipd_cache_hit_ratio Cache hits over cache lookups.\n")
	fmt.Fprintf(w, "# TYPE gossipd_cache_hit_ratio gauge\n")
	fmt.Fprintf(w, "gossipd_cache_hit_ratio %g\n", s.HitRatio())
}
