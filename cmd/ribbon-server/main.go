// Command ribbon-server exposes the Ribbon planner as an HTTP control-plane
// service (net/http, standard library only): a deployment orchestrator can
// inspect the model/instance catalogs, evaluate candidate pool
// configurations, run synchronous optimizations, drive long searches
// asynchronously through the job API, and launch continuous pool-controller
// runs that adapt a deployment to fluctuating load. The typed
// request/response contract lives in package api; programmatic access in
// package client; the full specification in docs/api.md.
//
// Endpoints (v1):
//
//	GET    /healthz              liveness probe
//	GET    /v1/slo               API availability SLO: error budget and burn rates
//	GET    /v1/models            model catalog (Table 1)
//	GET    /v1/instances         instance catalog (Table 2)
//	GET    /v1/scenarios         built-in load-fluctuation scenarios
//	POST   /v1/evaluate          EvaluateRequest  -> EvaluateResponse
//	POST   /v1/optimize          OptimizeRequest  -> OptimizeResponse (blocking)
//	POST   /v1/jobs              OptimizeRequest  -> Job (202, async)
//	GET    /v1/jobs              JobList
//	GET    /v1/jobs/{id}         Job (poll status/progress/result)
//	DELETE /v1/jobs/{id}         cancel a queued or running job
//	POST   /v1/controllers       ControllerSpec   -> Controller (202, async)
//	GET    /v1/controllers       ControllerList
//	GET    /v1/controllers/{id}  Controller (live snapshot + reconfiguration history)
//	DELETE /v1/controllers/{id}  cancel a queued or running controller run
//	POST   /v1/fleets            FleetSpec        -> Fleet (202, async)
//	GET    /v1/fleets            FleetList
//	GET    /v1/fleets/{id}       Fleet (live pipeline snapshot + budget allocation)
//	DELETE /v1/fleets/{id}       cancel a queued or running fleet run
//
// The v0 routes /api/{models,instances,evaluate,optimize} remain as
// deprecated aliases of their /v1 successors, answering with Deprecation
// and Sunset headers.
//
// Requests optionally select a pool dispatch policy (fcfs, least-loaded,
// cost-random, criticality) and a workload criticality mix via the service
// spec's "dispatch" and "class_mix" fields; see docs/dispatch.md.
// Controller runs replay a named load scenario or an explicit piecewise
// schedule; see docs/controller.md. Fleet runs optimize a catalog of
// models against one shared $/hour budget; see docs/fleet.md.
//
// Usage:
//
//	ribbon-server -addr :8080 -workers 4
//
// The process drains connections and cancels running jobs on SIGINT/SIGTERM.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ribbon/internal/obs"
	"ribbon/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 2, "concurrent optimize jobs")
	ctrlWorkers := flag.Int("controller-workers", 0, "concurrent controller runs (default: same as -workers)")
	fleetWorkers := flag.Int("fleet-workers", 0, "concurrent fleet optimizations (default: same as -workers)")
	queue := flag.Int("queue", 16, "pending job queue depth")
	budget := flag.Int("default-budget", 40, "optimize budget when the request omits it")
	adaptBudget := flag.Int("default-adapt-budget", 16, "controller re-search budget when the request omits it")
	retain := flag.Int("retain-jobs", 256, "finished jobs kept queryable before eviction")
	sloSampleMs := flag.Float64("slo-sample-ms", 0, "availability SLO sampling interval in ms (0: default 1000, negative: disabled)")
	sloTarget := flag.Float64("slo-target", 0, "availability SLO target in (0,1) (0: default 0.999)")
	logLevel := flag.String("log-level", "info", "log verbosity: debug, info, warn, error")
	logFormat := flag.String("log-format", "text", "log encoding: text (key=value) or json")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this extra address (empty: disabled)")
	flag.Parse()

	logger, err := obs.NewFlagLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ribbon-server: %v\n", err)
		os.Exit(2)
	}
	if *pprofAddr != "" {
		bound, stopPprof, err := obs.ServePprof(*pprofAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ribbon-server: pprof: %v\n", err)
			os.Exit(1)
		}
		defer stopPprof()
		logger.Info("pprof listening", "addr", bound)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, *addr, server.Config{
		Workers:            *workers,
		ControllerWorkers:  *ctrlWorkers,
		FleetWorkers:       *fleetWorkers,
		QueueDepth:         *queue,
		DefaultBudget:      *budget,
		DefaultAdaptBudget: *adaptBudget,
		RetainJobs:         *retain,
		SLOSampleMs:        *sloSampleMs,
		SLOTarget:          *sloTarget,
		Logger:             logger,
	}); err != nil {
		fmt.Fprintf(os.Stderr, "ribbon-server: %v\n", err)
		os.Exit(1)
	}
}

// run serves until the context is cancelled, then shuts down gracefully:
// in-flight requests get a drain window and job workers are stopped. Request
// contexts derive from ctx (via BaseContext), so cancelling it also aborts
// in-flight synchronous optimize searches at their next step boundary —
// without that, a long POST /v1/optimize would burn the whole drain window.
func run(ctx context.Context, addr string, cfg server.Config) error {
	srv := server.New(cfg)
	defer srv.Close()
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}

	hs := &http.Server{
		Addr:        addr,
		Handler:     srv.Handler(),
		BaseContext: func(net.Listener) context.Context { return ctx },
	}
	errc := make(chan error, 1)
	go func() {
		logger.Info("ribbon-server listening", "addr", addr)
		errc <- hs.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	logger.Info("ribbon-server shutting down")
	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return hs.Shutdown(drainCtx)
}
