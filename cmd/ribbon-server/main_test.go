package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"ribbon/internal/obs"
	"ribbon/internal/server"
)

// TestRunServesAndShutsDownGracefully boots the real entrypoint on an
// ephemeral port, probes /healthz and a v1 route, then cancels the context
// and expects a clean exit.
func TestRunServesAndShutsDownGracefully(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- run(ctx, addr, server.Config{Workers: 1}) }()

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
		t.Fatalf("server never came up: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz = %d %q", resp.StatusCode, body)
	}

	resp, err = http.Get(fmt.Sprintf("%s/v1/models", base))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/models = %d", resp.StatusCode)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not shut down")
	}
}

// TestPprofFlagSmoke exercises the -pprof-addr wiring: a dedicated listener
// serving the pprof index, separate from the service mux.
func TestPprofFlagSmoke(t *testing.T) {
	if _, err := obs.NewFlagLogger(io.Discard, "verbose", "text"); err == nil {
		t.Fatal("NewFlagLogger accepted a bogus level")
	}
	logger, err := obs.NewFlagLogger(io.Discard, "debug", "json")
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
