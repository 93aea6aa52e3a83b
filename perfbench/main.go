// Command perfbench is the repository benchmark. It drives RIBBON's layers
// from outside, through their public functions, on three seeded workloads:
//
//	plan   — the paper's own job: bounds discovery and a budget-120 BO search
//	         for each of the five models on its Table 3 pool, then one
//	         shared-budget fleet plan over the five frontiers.
//	infer  — the live gateway's HTTP ingress over a null backend, driven by an
//	         open-loop generator at a fixed rate and up a rate ladder.
//	adapt  — the continuous controller fed a square-wave load, re-planning
//	         with warm-started searches at every confirmed shift.
//
// Run it from the repository root:
//
//	go run ./perfbench --workload plan --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs the
// workload untraced and then traced, prints the per-layer metrics and the
// tracing overhead, and writes the spans to .bench_build/spans/. Every run
// checks the program's outputs; the last line of standard output is one JSON
// object, and the exit status is 1 when a check failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// metric is one reported number.
type metric struct {
	name    string
	unit    string
	value   float64
	samples int // observations behind the value
	// unsupported: a tail percentile with fewer than minTail samples
	// beyond it; reported, but flagged.
	unsupported bool
}

// e2eTable lists the end-to-end metrics every workload reports, so the
// same names can carry a bound on every workload; each workload fills them
// from its own operation:
//
//	metric         plan                  infer                        adapt
//	setup_s        building evaluators   gateway cold start           controller start-up
//	cpu_ms_per_op  CPU per pass          CPU per request              CPU per decision
//	cost_usd       $/hr of the 5 pools   $/hr of the cold-start pool  $ accrued by the pool
//
// Wall-clock figures (pass time, request latency, max req/s, reaction time)
// are printed by name in the report and listed in layerTable: on a shared
// 2-vCPU VM, spells of host contention moved them by 25-30% from one set of
// runs to the next, which no bound of at most 25% can hold, while process
// CPU time moved by under 10%.
var e2eTable = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"cpu_ms_per_op", "ms"},
	{"cost_usd", "usd"},
}

// result is what one workload run returns.
type result struct {
	attempted, failed int
	// e2e holds the end-to-end metrics (e2eTable's and the workload-named
	// ones), layers the per-layer ones (traced runs only).
	e2e    []metric
	layers []metric
	// primary names the e2e timing the tracing overhead is reported on.
	primary string
	// exact names the e2e metrics that depend only on the seed; a traced
	// run must reproduce them.
	exact []string
	// problems lists failed output checks.
	problems []string
	spans    []span
}

func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    uint64
	seconds float64
	tr      *tracer // nil for the untraced measurement
	// perLayer marks both halves of a --trace 1 run: a workload may skip
	// what only its end-to-end figures need, as long as the two halves
	// measure the same thing.
	perLayer bool
}

var workloads = map[string]func(runConfig) (*result, error){
	"plan":  runPlan,
	"infer": runInfer,
	"adapt": runAdapt,
}

func main() {
	name := flag.String("workload", "", "workload: plan, infer or adapt")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 20, "measurement time in seconds")
	traceFlag := flag.Int("trace", 0, "1 prints per-layer metrics from a traced run")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload plan|infer|adapt --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}

	env := probeEnv(*seed)
	fmt.Println(env)

	var out *result
	var err error
	if *traceFlag == 0 {
		out, err = run(runConfig{seed: *seed, seconds: float64(*seconds)})
		if err == nil {
			printMetrics("end-to-end", out.e2e)
		}
	} else {
		out, err = tracedRun(run, *name, *seed, float64(*seconds))
		if err == nil {
			printMetrics("per-layer", out.layers)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	emit(out, *traceFlag == 1)
	if len(out.problems) > 0 {
		os.Exit(1)
	}
}

// tracedRun measures the workload untraced and then traced, half the time
// each, and reports the traced run's layers plus the tracing overhead on the
// workload's primary timing. It writes the spans at exit.
func tracedRun(run func(runConfig) (*result, error), name string, seed uint64, seconds float64) (*result, error) {
	plain, err := run(runConfig{seed: seed, seconds: seconds / 2, perLayer: true})
	if err != nil {
		return nil, err
	}
	traced, err := run(runConfig{seed: seed, seconds: seconds / 2, tr: newTracer(), perLayer: true})
	if err != nil {
		return nil, err
	}
	base, ok1 := find(plain.e2e, traced.primary)
	with, ok2 := find(traced.e2e, traced.primary)
	if !ok1 || !ok2 || base.value == 0 {
		return nil, fmt.Errorf("primary metric %q missing from the %s run", traced.primary, name)
	}
	fmt.Printf("tracing overhead on %s: untraced %.6g %s, traced %.6g %s\n",
		traced.primary, base.value, base.unit, with.value, with.unit)
	traced.layers = append(traced.layers, metric{
		name: "trace.overhead_pct", unit: "%",
		value:   100 * (with.value - base.value) / base.value,
		samples: min(base.samples, with.samples),
	})
	// The workload-named metrics come from the untraced half.
	for i, l := range traced.layers {
		if m, ok := find(plain.e2e, l.name); ok {
			traced.layers[i].value = m.value
		}
	}
	for _, n := range traced.exact {
		a, _ := find(plain.e2e, n)
		b, _ := find(traced.e2e, n)
		traced.check(a.value == b.value, "%s is %v traced and %v untraced", n, b.value, a.value)
	}
	traced.attempted += plain.attempted
	traced.failed += plain.failed
	traced.problems = append(plain.problems, traced.problems...)
	path := filepath.Join(".bench_build", "spans", name+".csv.gz")
	if err := writeSpans(path, traced.spans); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("wrote %d spans to %s\n", len(traced.spans), path)
	return traced, nil
}

func find(ms []metric, name string) (metric, bool) {
	for _, m := range ms {
		if m.name == name {
			return m, true
		}
	}
	return metric{}, false
}

func printMetrics(kind string, ms []metric) {
	for _, m := range ms {
		flag := ""
		if m.unsupported {
			flag = fmt.Sprintf("  (WARN: fewer than %d samples beyond this percentile)", minTail)
		}
		fmt.Printf("%-10s %-40s %16.6g %-6s n=%d%s\n", kind, m.name, m.value, m.unit, m.samples, flag)
	}
}

// emit prints the result as the final JSON line.
func emit(r *result, traced bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := r.layers
	if !traced {
		ms = nil
		for _, e := range e2eTable {
			m, ok := find(r.e2e, e.name)
			if !ok || m.unit != e.unit {
				m = metric{name: e.name, unit: e.unit}
				r.problems = append(r.problems, "end-to-end metric "+e.name+" missing")
			}
			ms = append(ms, m)
		}
	}
	metrics := make(map[string]value, len(ms))
	for _, m := range ms {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
			r.problems = append(r.problems, m.name+" is not a finite number")
		}
		metrics[m.name] = value{v, m.unit}
	}
	for _, p := range r.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(r.problems) == 0, max(r.attempted, 1), r.failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode result:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// pct builds a percentile metric, flagging an unsupported tail.
func pct(name, unit string, xs []float64, p float64) metric {
	v, ok := percentile(xs, p)
	return metric{name: name, unit: unit, value: v, samples: len(xs), unsupported: !ok}
}

// measureUntil reports whether a measurement loop that started at t0 should
// stop: the time is spent and the sample target is met, or a hard cap of
// three times the requested time is reached.
func measureUntil(t0 time.Time, seconds float64, enough bool) bool {
	el := time.Since(t0).Seconds()
	return (el >= seconds && enough) || el >= 3*seconds
}

// median of a sample that is never empty in practice.
func median(xs []float64) float64 {
	v, _ := percentile(xs, 0.5)
	return v
}
