package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"ribbon/api"
	"ribbon/internal/obs"
)

// TestRunServesInference boots the real entrypoint on an ephemeral port with
// a fixed pool and a heavily compressed simulated backend, serves one
// inference request end to end, reads the metrics snapshot, and expects a
// clean shutdown on context cancellation.
func TestRunServesInference(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	opts, err := buildOptions(gatewayFlags{
		model: "CANDLE", types: "c5a,m5,t3", qos: 0.99,
		policy:  "fcfs",
		initial: "2+2+2", seed: 42, rateScale: 1, queries: 400,
		timeScale: 0.01,
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- run(ctx, addr, opts) }()

	base := "http://" + addr
	var resp *http.Response
	for i := 0; i < 100; i++ {
		resp, err = http.Get(base + "/healthz")
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("gateway never came up: %v", err)
	}
	resp.Body.Close()

	body, _ := json.Marshal(api.InferRequest{Class: "critical", Batch: 2})
	resp, err = http.Post(base+"/v1/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/infer = %d %s", resp.StatusCode, raw)
	}
	var infer api.InferResponse
	if err := json.Unmarshal(raw, &infer); err != nil {
		t.Fatal(err)
	}
	if infer.Outcome != "queued" || infer.ServiceMs <= 0 || infer.Instance == "" {
		t.Fatalf("implausible inference response: %+v", infer)
	}

	resp, err = http.Get(base + "/v1/gateway/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/gateway/metrics = %d", resp.StatusCode)
	}
	var m api.GatewayMetrics
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m.Completed < 1 || len(m.Config) != 3 || m.Config[0]+m.Config[1]+m.Config[2] != 6 || len(m.Instances) != 6 {
		t.Fatalf("implausible metrics: %s", raw)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("gateway did not shut down")
	}
}

// TestBuildOptionsRejectsBadFlags covers the flag-validation surface.
func TestBuildOptionsRejectsBadFlags(t *testing.T) {
	bad := []gatewayFlags{
		{model: "NO-SUCH-MODEL", types: "c5a", qos: 0.99},
		{model: "CANDLE", types: "not-a-family", qos: 0.99},
		{model: "CANDLE", types: "c5a,m5,t3", qos: 0.99, initial: "2+bogus+2"},
	}
	for _, f := range bad {
		if _, err := buildOptions(f); err == nil {
			t.Errorf("buildOptions(%+v) accepted invalid flags", f)
		}
	}
}

// TestPprofFlagSmoke exercises the -pprof-addr wiring: a dedicated listener
// serving the pprof index, separate from the data-plane mux.
func TestPprofFlagSmoke(t *testing.T) {
	if _, err := obs.NewFlagLogger(io.Discard, "info", "yaml"); err == nil {
		t.Fatal("NewFlagLogger accepted a bogus format")
	}
	logger, err := obs.NewFlagLogger(io.Discard, "warn", "text")
	if err != nil || logger == nil {
		t.Fatalf("NewFlagLogger = %v, %v", logger, err)
	}

	addr, stop, err := obs.ServePprof("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	resp, err := http.Get("http://" + addr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index = %d", resp.StatusCode)
	}
}
