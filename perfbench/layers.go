package main

import (
	"runtime/metrics"
	"syscall"
	"time"
)

// layerTable lists every per-layer metric in report order with its unit.
// A traced run reports all of them; a layer its workload leaves idle reads 0.
// Counts and times are per planning pass on plan and per controller
// decision on adapt, so they compare directly with plan.pass_s and
// adapt.react_ms.
var layerTable = []struct{ name, unit string }{
	// Workload-named end-to-end figures outside e2eTable: wall-clock times
	// that host contention moves too much to carry a bound, and search
	// quality counts. Traced runs report them from the untraced half.
	{"plan.pass_s.p50", "s"},
	{"plan.search_ms.p90", "ms"},
	{"plan.samples_to_best", "count"},
	{"infer.max_rps", "1/s"},
	{"infer.latency_ms.p50", "ms"},
	{"infer.latency_ms.p99", "ms"},
	{"adapt.react_ms.p50", "ms"},
	{"adapt.react_ms.p90", "ms"},
	{"adapt.samples", "count"},
	{"serving.evaluate.calls", "count"},
	{"serving.evaluate.busy_ms", "ms"},
	{"serving.evaluate.us.p50", "us"},
	{"core.search.self_ms", "ms"},
	{"serving.cache.useful_ratio", "ratio"},
	{"core.bounds_ms", "ms"},
	{"core.step_ms.p50", "ms"},
	{"core.adapt.step_ms.p50", "ms"},
	{"core.adapt.steps", "count"},
	{"dispatch.picks", "count"},
	{"dispatch.shed_ratio", "ratio"},
	{"fleet.frontier_ms", "ms"},
	{"fleet.solve_ms", "ms"},
	{"gateway.handler_us.p50", "us"},
	{"gateway.handler_us.p99", "us"},
	{"gateway.queue_wait_us.p50", "us"},
	{"gateway.queue_wait_us.p99", "us"},
	{"gateway.backend.calls", "count"},
	{"gateway.backend.requests_per_call", "ratio"},
	{"http.overhead_us.p50", "us"},
	{"proc.allocs_per_req", "count"},
	{"proc.gc_cpu_fraction", "ratio"},
	{"controller.ingest_ns_per_arrival", "ns"},
	{"controller.decisions", "count"},
	{"controller.applied", "count"},
}

// layerMetrics turns a workload's measured layer values into the full
// per-layer list.
func layerMetrics(vals map[string]float64) []metric {
	out := make([]metric, 0, len(layerTable))
	for _, l := range layerTable {
		out = append(out, metric{name: l.name, unit: l.unit, value: vals[l.name]})
	}
	return out
}

// procStats is a reading of the runtime's cumulative counters.
type procStats struct {
	gcCPU, totalCPU float64 // seconds of GC CPU and of CPU available to Go
	allocs          uint64  // heap objects allocated
}

func readProc() procStats {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:objects"},
	}
	metrics.Read(s)
	return procStats{gcCPU: s[0].Value.Float64(), totalCPU: s[1].Value.Float64(), allocs: s[2].Value.Uint64()}
}

// gcFraction is the share of the CPU available to Go that the collector used
// between the readings before and p.
func (p procStats) gcFraction(before procStats) float64 {
	if d := p.totalCPU - before.totalCPU; d > 0 {
		return (p.gcCPU - before.gcCPU) / d
	}
	return 0
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
