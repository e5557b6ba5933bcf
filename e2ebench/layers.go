package main

import "time"

// serveClasses are the serve-mixed request classes.
var serveClasses = []string{"hot-analyze", "hot-certify", "hot-broadcast",
	"tail", "scenario", "scan", "sweep", "async", "invalid"}

// traceLayers are the layers spans are attributed to: the program's
// modules, plus the benchmark's own client code and glue.
var traceLayers = []string{"topology", "protocols", "gossip", "delay", "serve", "client", "bench"}

// metricSpec names a metric and its unit.
type metricSpec struct{ Name, Unit string }

// perLayerMetrics lists every per-layer metric with its unit. Every traced
// run reports all of them; a layer the workload never reaches reports 0.
func perLayerMetrics() []metricSpec {
	ms := []metricSpec{
		{"topology.build_s", "s"},
		{"topology.arcs_built", "count"},
		{"protocols.build_s", "s"},
		{"gossip.compile_s", "s"},
		{"gossip.simulate_s", "s"},
		{"gossip.flood_round_s", "s"},
		{"gossip.flood_ns_per_arc.csr", "ns"},
		{"gossip.flood_ns_per_arc.gen", "ns"},
		{"gossip.program_round_s", "s"},
		{"gossip.program_ns_per_arc", "ns"},
		{"gossip.rounds", "count"},
		{"gossip.arcs_streamed", "count"},
		{"gossip.computed_bytes_per_arc", "B"},
		{"delay.plan_s", "s"},
		{"delay.norm_s", "s"},
		{"delay.verts", "count"},
		{"delay.arcs", "count"},
		{"bounds.evaluate_s", "s"},
		{"scenario.trials_per_s", "1/s"},
	}
	for _, c := range serveClasses {
		ms = append(ms,
			metricSpec{"serve.handler_ms." + c + ".p50", "ms"},
			metricSpec{"serve.handler_ms." + c + ".p99", "ms"})
	}
	ms = append(ms, []metricSpec{
		{"serve.client_overhead_ms", "ms"},
		{"serve.conn_wait_ms", "ms"},
		{"serve.gen_late_ms", "ms"},
		{"serve.result_hit_ratio", "ratio"},
		{"serve.program_hit_ratio", "ratio"},
		{"serve.plan_hit_ratio", "ratio"},
		{"serve.dedup_share", "ratio"},
		{"serve.rejected_share", "ratio"},
		{"trace.overhead_share", "ratio"},
	}...)
	for _, l := range traceLayers {
		ms = append(ms, metricSpec{"trace.self_share." + l, "ratio"})
	}
	return ms
}

// emptyLayers returns every per-layer metric at 0.
func emptyLayers() map[string]Metric {
	m := map[string]Metric{}
	for _, x := range perLayerMetrics() {
		m[x.Name] = Metric{0, x.Unit}
	}
	return m
}

// addTraceShares records each layer's share of the traced wall time (the
// benchmark's own glue is layer bench) and the tracing overhead.
func addTraceShares(m map[string]Metric, self map[string]time.Duration, wall time.Duration, overhead float64) {
	for _, l := range traceLayers {
		if wall > 0 {
			m["trace.self_share."+l] = Metric{self[l].Seconds() / wall.Seconds(), "ratio"}
		}
	}
	m["trace.overhead_share"] = Metric{overhead, "ratio"}
}
