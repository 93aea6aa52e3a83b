package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"ribbon/api"
	"ribbon/internal/workload"
)

// scrape parses Prometheus text exposition into series -> value.
func scrape(t *testing.T, h http.Handler) map[string]float64 {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("malformed value in %q: %v", line, err)
		}
		out[line[:sp]] = v
	}
	return out
}

func TestGatewayPrometheusEndpoint(t *testing.T) {
	g := newStaticGateway(t, Options{TraceSampleEvery: 1})
	ctx := context.Background()
	classes := []workload.Criticality{workload.ClassCritical, workload.ClassStandard, workload.ClassSheddable}
	const offered = 60
	for i := 0; i < offered; i++ {
		if _, out, err := g.Ingest(ctx, float64(i), 1, classes[i%3], nil); err != nil || out != OutcomeQueued {
			t.Fatalf("ingest %d: out=%v err=%v", i, out, err)
		}
	}
	series := scrape(t, g.Handler())

	var requests, served, shed, rejected float64
	for _, tier := range tierNames {
		requests += series[`ribbon_gateway_requests_total{tier="`+tier+`"}`]
		served += series[`ribbon_gateway_served_total{tier="`+tier+`"}`]
		shed += series[`ribbon_gateway_shed_total{tier="`+tier+`"}`]
		rejected += series[`ribbon_gateway_rejected_total{tier="`+tier+`"}`]
	}
	if requests != offered {
		t.Errorf("requests_total = %v, want %v", requests, offered)
	}
	if served+shed+rejected != requests {
		t.Errorf("served+shed+rejected = %v, want %v", served+shed+rejected, requests)
	}
	if got := series[`ribbon_gateway_request_latency_ms_count{tier="standard"}`]; got != offered/3 {
		t.Errorf("standard latency count = %v, want %v", got, offered/3)
	}
	if got := series[`ribbon_gateway_request_latency_ms_bucket{tier="standard",le="+Inf"}`]; got != offered/3 {
		t.Errorf("standard +Inf bucket = %v, want %v", got, offered/3)
	}
	for _, name := range []string{
		"ribbon_gateway_accepted_total",
		"ribbon_gateway_batches_total",
		"ribbon_gateway_batch_size_count",
		"ribbon_gateway_queue_depth",
		"ribbon_gateway_pool_instances",
		"ribbon_gateway_pool_cost_per_hour",
		`ribbon_gateway_pick_seconds_count{policy="fcfs"}`,
	} {
		if _, ok := series[name]; !ok {
			t.Errorf("series %s missing from exposition", name)
		}
	}
	if got := series["ribbon_gateway_pool_instances"]; got != 6 {
		t.Errorf("pool_instances = %v, want 6", got)
	}
	if got := series[`ribbon_gateway_pick_seconds_count{policy="fcfs"}`]; got != offered {
		t.Errorf("pick count = %v, want %v", got, offered)
	}
}

func TestGatewayTraceSpansMonotone(t *testing.T) {
	g := newStaticGateway(t, Options{TraceSampleEvery: 1})
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if _, out, err := g.Ingest(ctx, float64(i), 1, workload.ClassStandard, nil); err != nil || out != OutcomeQueued {
			t.Fatalf("ingest %d: out=%v err=%v", i, out, err)
		}
	}
	traces := g.Traces()
	if len(traces) != 10 {
		t.Fatalf("want 10 traces, got %d", len(traces))
	}
	wantSpans := []string{"admit", "queue", "batch-fuse", "backend", "respond"}
	checked := 0
	for _, tr := range traces {
		if tr.Outcome != "served" {
			continue
		}
		checked++
		if len(tr.Spans) != len(wantSpans) {
			t.Fatalf("trace %d: %d spans, want %d: %+v", tr.Seq, len(tr.Spans), len(wantSpans), tr.Spans)
		}
		prevEnd := 0.0
		for i, sp := range tr.Spans {
			if sp.Name != wantSpans[i] {
				t.Errorf("trace %d span %d = %q, want %q", tr.Seq, i, sp.Name, wantSpans[i])
			}
			if sp.EndMs < sp.StartMs {
				t.Errorf("trace %d span %q ends (%v) before it starts (%v)", tr.Seq, sp.Name, sp.EndMs, sp.StartMs)
			}
			if sp.StartMs < prevEnd {
				t.Errorf("trace %d span %q starts (%v) before previous span ended (%v)", tr.Seq, sp.Name, sp.StartMs, prevEnd)
			}
			prevEnd = sp.EndMs
		}
	}
	if checked == 0 {
		t.Fatal("no served traces sampled")
	}
}

func TestGatewayRequestIDAdoption(t *testing.T) {
	g := newStaticGateway(t, Options{TraceSampleEvery: 1})
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	body, _ := json.Marshal(api.InferRequest{Class: "standard"})
	req, _ := http.NewRequest("POST", srv.URL+"/v1/infer", bytes.NewReader(body))
	req.Header.Set("X-Request-Id", "flood-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/infer = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-Id"); got != "flood-42" {
		t.Errorf("X-Request-Id echo = %q, want flood-42", got)
	}
	var ir api.InferResponse
	decodeBody(t, resp.Body, &ir)
	if ir.TraceID != "flood-42" {
		t.Errorf("trace_id = %q, want flood-42", ir.TraceID)
	}

	tr, err := http.Get(srv.URL + "/v1/gateway/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Body.Close()
	var traces api.GatewayTraces
	decodeBody(t, tr.Body, &traces)
	found := false
	for _, trace := range traces.Traces {
		if trace.ID == "flood-42" {
			found = true
			if trace.Outcome != "served" {
				t.Errorf("adopted trace outcome = %q, want served", trace.Outcome)
			}
		}
	}
	if !found {
		t.Errorf("adopted trace ID not in /v1/gateway/traces: %+v", traces.Traces)
	}
}

func TestGatewayTracingDisabled(t *testing.T) {
	g := newStaticGateway(t, Options{TraceCapacity: -1})
	ctx := context.Background()
	if _, out, err := g.Ingest(ctx, 0, 1, workload.ClassStandard, nil); err != nil || out != OutcomeQueued {
		t.Fatalf("ingest: out=%v err=%v", out, err)
	}
	if got := g.Traces(); got != nil {
		t.Errorf("disabled tracing returned traces: %+v", got)
	}
	s := g.Metrics()
	if s.Completed != 1 {
		t.Errorf("completed = %d, want 1 (metrics must work without tracing)", s.Completed)
	}
}
