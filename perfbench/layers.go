package main

// perLayerMetrics lists the traced run's metrics, in report order, with
// their units. Every workload reports all of them; a layer the workload
// bypasses reports 0, which is how the bypasses show.
var perLayerMetrics = []struct{ name, unit string }{
	{"core.solves", "count"},
	{"core.coalesced", "count"},
	{"core.cache_hit_ratio", "ratio"},
	{"core.solve_ms", "ms"},
	{"core.cache_lookup_us", "us"},
	{"core.solver_iters", "iters"},
	{"core.warm_s", "s"},
	{"coord.calls", "count"},
	{"coord.fetch_rtt_us", "us"},
	{"coord.submit_us", "us"},
	{"coord.request_self_us", "us"},
	{"coord.wire_us", "us"},
	{"coord.pool_ms", "ms"},
	{"coord.register_s", "s"},
	{"persist.replay_s", "s"},
	{"persist.records_replayed", "count"},
	{"persist.spills", "count"},
	{"persist.spill_errors", "count"},
	{"cluster.presolve_s", "s"},
	{"cluster.presolve_distinct", "count"},
	{"cluster.presolve_solved", "count"},
	{"route.pick_ns", "ns"},
	{"route.picks", "count"},
	{"route.arrivals_ns", "ns"},
	{"route.jobs_arrived", "count"},
	{"route.jobs_completed", "count"},
	{"route.jobs_unfinished", "count"},
	{"route.jobs_rerouted", "count"},
	{"sim.agent_epoch_ns", "ns"},
	{"workload.trace_next_ns", "ns"},
	{"go.alloc_bytes_per_op", "B/op"},
	{"go.gc_cycles", "count"},
	{"telemetry.overhead_pct", "%"},
}

// layerValues collects a traced run's per-layer values with the number
// of samples behind each.
type layerValues map[string]metric

func (lv layerValues) set(name string, v float64, samples int64) {
	lv[name] = metric{Name: name, Value: v, Samples: int(samples)}
}

// metrics returns every per-layer metric in report order, 0 where the
// workload did not set it.
func (lv layerValues) metrics() []metric {
	out := make([]metric, len(perLayerMetrics))
	for i, pm := range perLayerMetrics {
		m := lv[pm.name]
		m.Name, m.Unit = pm.name, pm.unit
		out[i] = m
	}
	return out
}

// setGo records the runtime's allocation and GC activity over an
// untraced phase of ops operations.
func (lv layerValues) setGo(mem memDelta, ops int) {
	if ops > 0 {
		lv.set("go.alloc_bytes_per_op", float64(mem.allocBytes)/float64(ops), int64(ops))
	}
	lv.set("go.gc_cycles", float64(mem.gcCycles), 1)
}

// setOverhead records tracing overhead: the traced CPU time per
// operation over the untraced, as a percentage above 1.
func (lv layerValues) setOverhead(untracedCPU, tracedCPU float64) {
	if untracedCPU > 0 {
		lv.set("telemetry.overhead_pct", 100*(tracedCPU/untracedCPU-1), 2)
	}
}
