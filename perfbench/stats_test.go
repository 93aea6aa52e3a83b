package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed, so percentile must sort
	}
	return xs
}

func TestPercentileTailRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{100, 0.9, 90, true},    // ten samples beyond the 90th
		{99, 0.9, 90, false},    // nine
		{1000, 0.99, 990, true}, // ten beyond the 99th
		{999, 0.99, 990, false},
		{5, 0.5, 3, true}, // the median needs no tail
		{1, 0.99, 1, false},
	} {
		got, ok := percentile(seq(c.n), c.p)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(n=%d, p=%g) = %g, %v; want %g, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported ok")
	}
}

func TestUnionLen(t *testing.T) {
	for _, c := range []struct {
		name   string
		ivs    []interval
		lo, hi int64
		want   int64
	}{
		{"disjoint", []interval{{0, 10}, {20, 30}}, 0, 100, 20},
		{"overlapping", []interval{{0, 10}, {5, 15}}, 0, 100, 15},
		{"nested", []interval{{0, 30}, {5, 10}, {12, 20}}, 0, 100, 30},
		{"unsorted", []interval{{20, 30}, {0, 10}, {8, 22}}, 0, 100, 30},
		{"clipped to parent", []interval{{-5, 5}, {95, 120}}, 0, 100, 10},
		{"outside parent", []interval{{200, 300}}, 0, 100, 0},
		{"none", nil, 0, 100, 0},
	} {
		if got := unionLen(c.ivs, c.lo, c.hi); got != c.want {
			t.Errorf("%s: unionLen = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestSelfMs(t *testing.T) {
	parents := []span{{name: "core.search", id: 1, start: 0, end: 10e6}}
	children := []span{
		{name: "serving.evaluate", parent: 1, start: 1e6, end: 4e6},
		{name: "serving.evaluate", parent: 1, start: 3e6, end: 5e6}, // parallel with the first
		{name: "serving.evaluate", parent: 2, start: 0, end: 10e6},  // another parent's
	}
	if got := selfMs(parents, children); got != 6 {
		t.Fatalf("self time %g ms, want 6 (10 ms minus the 4 ms union of its children)", got)
	}
}

// TestDueTimeLatencyBehindStalledSender: one connection, a request due every
// millisecond, and the first send stalls for 30 ms. The requests due during
// the stall are sent late but answered at once; timed from their due time,
// each still shows the wait the stall imposed.
func TestDueTimeLatencyBehindStalledSender(t *testing.T) {
	const n = 20
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(i) * time.Millisecond
	}
	const stall = 30 * time.Millisecond
	lr := runOpenLoop(due, 1, func(_, i int) error {
		if i == 0 {
			time.Sleep(stall)
		}
		return nil
	})
	for i := 1; i < n; i++ {
		// Request i could not start before the stall ended at ~30 ms.
		if lat, want := lr.done[i]-due[i], stall-due[i]; lat < want {
			t.Errorf("request %d: latency %v from its due time, want >= %v", i, lat, want)
		}
		// The wait was the sender's, not the generator's.
		if lr.late[i] != 0 {
			t.Errorf("request %d: generator lateness %v, want 0 behind a busy sender", i, lr.late[i])
		}
	}
}

func TestMaxRate(t *testing.T) {
	for _, c := range []struct {
		name  string
		steps []step
		want  float64
		ok    bool
	}{
		{"climb then fail", []step{{100, true, true}, {150, true, true}, {225, false, true}}, 150, true},
		{"bisection", []step{{100, true, true}, {200, false, true}, {141, true, true}, {168, false, true}, {154, true, true}}, 154, true},
		{"lucky pass above a failure", []step{{100, true, true}, {150, false, true}, {225, true, true}}, 100, true},
		{"invalid step counts as failed", []step{{100, true, true}, {150, true, false}, {225, true, true}}, 100, true},
		{"nothing passes", []step{{100, false, true}, {66, false, true}}, 0, false},
		{"all pass", []step{{100, true, true}, {150, true, true}}, 150, true},
	} {
		got, ok := maxRate(c.steps)
		if got != c.want || ok != c.ok {
			t.Errorf("%s: maxRate = %g, %v; want %g, %v", c.name, got, ok, c.want, c.ok)
		}
	}
}

// TestBenchmarkJSONMatchesTables: the metric names and units the benchmark
// prints are the ones BENCHMARK.json declares, in both modes.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var e2e, layers []string
	for _, m := range e2eTable {
		e2e = append(e2e, m.name+" "+m.unit)
	}
	for _, m := range layerMetrics(nil) {
		layers = append(layers, m.name+" "+m.unit)
	}
	layers = append(layers, "trace.overhead_pct %")
	var wantE2E, wantLayers []string
	for _, m := range b.EndToEnd {
		wantE2E = append(wantE2E, m.Name+" "+m.Unit)
	}
	for _, m := range b.PerLayer {
		wantLayers = append(wantLayers, m.Name+" "+m.Unit)
	}
	if !slices.Equal(e2e, wantE2E) {
		t.Errorf("end-to-end metrics %v, BENCHMARK.json declares %v", e2e, wantE2E)
	}
	if !slices.Equal(layers, wantLayers) {
		t.Errorf("per-layer metrics %v, BENCHMARK.json declares %v", layers, wantLayers)
	}
}
