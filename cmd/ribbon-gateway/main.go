// Command ribbon-gateway runs the Ribbon live serving data plane: an HTTP
// ingress that admits inference requests, classifies them by criticality,
// dispatches them across a heterogeneous instance pool under one of the
// paper's routing policies, and — when the controller is enabled — streams
// every measured arrival into the continuous pool controller so the live
// pool follows the load it is actually receiving.
//
// Endpoints (v1):
//
//	POST /v1/infer            InferRequest -> InferResponse (or 503 + Retry-After)
//	GET  /v1/gateway/metrics  data-plane snapshot: per-tier latency quantiles,
//	                          shed/reject counters, live instances, decisions
//	GET  /v1/gateway/slo      burn-rate SLO status when -slo is set
//	GET  /healthz             liveness probe
//
// Two backends are built in: the default simulated backend sleeps out the
// calibrated service-time model (optionally time-compressed via -time-scale),
// and -proxy-target forwards every admitted request to a real serving
// endpoint. See docs/gateway.md.
//
// Usage:
//
//	ribbon-gateway -addr :8081 -model CANDLE -types c5a,m5,t3 -initial 2+2+2
//	ribbon-gateway -model CANDLE -controller            # cold search + live adaptation
//	ribbon-gateway -proxy-target http://10.0.0.7:8501/v1/predict -initial 4+0+0
//
// The process drains connections on SIGINT/SIGTERM.
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
	"strings"
	"syscall"
	"time"

	"ribbon/internal/chaos"
	"ribbon/internal/controller"
	"ribbon/internal/dispatch"
	"ribbon/internal/gateway"
	"ribbon/internal/models"
	"ribbon/internal/obs"
	"ribbon/internal/serving"
)

func main() {
	var (
		addr        = flag.String("addr", ":8081", "listen address")
		model       = flag.String("model", "CANDLE", "served model (see ribbon-explore -list)")
		types       = flag.String("types", "c5a,m5,t3", "instance type families, preference order")
		qos         = flag.Float64("qos", 0.99, "QoS satisfaction percentile")
		policy      = flag.String("policy", "fcfs", "dispatch policy: fcfs, least-loaded, cost-random, criticality")
		shedQueue   = flag.Int("shed-queue", 0, "criticality policy shed threshold (0: default)")
		initial     = flag.String("initial", "", "initial pool configuration, e.g. 2+2+2 (empty: cold search)")
		budget      = flag.Int("budget", 40, "cold-search evaluation budget")
		rateScale   = flag.Float64("rate-scale", 1, "provisioned load scale relative to the model's base rate")
		queries     = flag.Int("queries", 4000, "simulated queries per controller evaluation")
		seed        = flag.Uint64("seed", 42, "deterministic seed for searches and routing")
		ctrl        = flag.Bool("controller", false, "enable live adaptation from measured arrivals")
		windowMs    = flag.Float64("window-ms", 0, "controller estimator window (0: default 10000)")
		tickMs      = flag.Float64("tick-ms", 0, "controller detector tick (0: default 1000)")
		dwellMs     = flag.Float64("dwell-ms", 0, "controller dwell before confirming a shift (0: default 4000)")
		threshold   = flag.Float64("threshold", 0, "controller relative deviation threshold (0: default 0.25)")
		adaptBudget = flag.Int("adapt-budget", 0, "controller re-search budget (0: default 16)")
		timeScale   = flag.Float64("time-scale", 1, "stream-to-wall time compression for the simulated backend")
		queueDepth  = flag.Int("queue-depth", 0, "per-instance per-rank queue bound (0: default 64)")
		maxBatch    = flag.Int("max-batch", 0, "max requests fused per backend call (0: no batching)")
		batchWaitMs = flag.Float64("batch-timeout-ms", 0, "flush timeout for a partial batch, stream ms (0: default 2)")
		warmupMs    = flag.Float64("warmup-ms", 0, "warm-up charge for instances added by a reconfiguration, stream ms")
		proxyTarget = flag.String("proxy-target", "", "forward requests to this endpoint instead of simulating")
		chaosStorm  = flag.Float64("chaos-storm", 0, "inject a seeded capacity storm: multiplier on catalog spot revocation rates (0: disabled)")
		chaosFails  = flag.Float64("chaos-failures", 0, "storm hard-failure rate per family per hour")
		chaosPrice  = flag.Float64("chaos-price-step-ms", 0, "storm spot-price walk step, stream ms (0: no price events)")
		chaosWarn   = flag.Float64("chaos-warning-ms", 0, "storm revocation notice window, stream ms (0: the two-minute default)")
		chaosRegrow = flag.Float64("chaos-restore-ms", 0, "respawn storm-lost capacity this many ms after it leaves (0: stays lost)")
		chaosSpanMs = flag.Float64("chaos-horizon-ms", 600000, "stream-time extent of the generated storm")
		chaosSeed   = flag.Uint64("chaos-seed", 0, "storm seed (0: the -seed value)")
		useSpot     = flag.Bool("use-spot", false, "price controller decisions and the spend meter at spot-market rates")
		sloOn       = flag.Bool("slo", false, "track per-tier burn-rate SLOs and serve GET /v1/gateway/slo")
		sloSampleMs = flag.Float64("slo-sample-ms", 0, "SLO sampling interval, stream ms (0: default 500)")
		sloTrigger  = flag.Bool("slo-trigger", false, "page-severity alerts trigger a controller re-search (needs -controller)")
		logLevel    = flag.String("log-level", "info", "log verbosity: debug, info, warn, error")
		logFormat   = flag.String("log-format", "text", "log encoding: text (key=value) or json")
		pprofAddr   = flag.String("pprof-addr", "", "serve net/http/pprof on this extra address (empty: disabled)")
		sampleEvery = flag.Int("trace-sample", 0, "sample one request trace in every N (0: default 16)")
	)
	flag.Parse()

	logger, err := obs.NewFlagLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ribbon-gateway: %v\n", err)
		os.Exit(2)
	}
	if *pprofAddr != "" {
		bound, stopPprof, err := obs.ServePprof(*pprofAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ribbon-gateway: pprof: %v\n", err)
			os.Exit(1)
		}
		defer stopPprof()
		logger.Info("pprof listening", "addr", bound)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts, err := buildOptions(gatewayFlags{
		model: *model, types: *types, qos: *qos,
		policy: *policy, shedQueue: *shedQueue,
		initial: *initial, budget: *budget, rateScale: *rateScale, queries: *queries, seed: *seed,
		controller: *ctrl, windowMs: *windowMs, tickMs: *tickMs, dwellMs: *dwellMs,
		threshold: *threshold, adaptBudget: *adaptBudget,
		timeScale: *timeScale, queueDepth: *queueDepth,
		maxBatch: *maxBatch, batchTimeoutMs: *batchWaitMs, warmupMs: *warmupMs,
		proxyTarget: *proxyTarget,
		chaosStorm:  *chaosStorm, chaosFailures: *chaosFails, chaosPriceStepMs: *chaosPrice,
		chaosWarningMs: *chaosWarn, chaosRestoreMs: *chaosRegrow, chaosHorizonMs: *chaosSpanMs,
		chaosSeed: *chaosSeed, useSpot: *useSpot,
		slo: *sloOn, sloSampleMs: *sloSampleMs, sloTrigger: *sloTrigger,
		logger: logger, traceSampleEvery: *sampleEvery,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "ribbon-gateway: %v\n", err)
		os.Exit(2)
	}
	if err := run(ctx, *addr, opts); err != nil {
		fmt.Fprintf(os.Stderr, "ribbon-gateway: %v\n", err)
		os.Exit(1)
	}
}

// gatewayFlags is the parsed command line, decoupled from package flag so the
// entrypoint is testable.
type gatewayFlags struct {
	model, types     string
	qos              float64
	policy           string
	shedQueue        int
	initial          string
	budget           int
	rateScale        float64
	queries          int
	seed             uint64
	controller       bool
	windowMs         float64
	tickMs           float64
	dwellMs          float64
	threshold        float64
	adaptBudget      int
	timeScale        float64
	queueDepth       int
	maxBatch         int
	batchTimeoutMs   float64
	warmupMs         float64
	proxyTarget      string
	chaosStorm       float64
	chaosFailures    float64
	chaosPriceStepMs float64
	chaosWarningMs   float64
	chaosRestoreMs   float64
	chaosHorizonMs   float64
	chaosSeed        uint64
	useSpot          bool
	slo              bool
	sloSampleMs      float64
	sloTrigger       bool
	logger           *slog.Logger
	traceSampleEvery int
}

// buildOptions translates flags into gateway.Options.
func buildOptions(f gatewayFlags) (gateway.Options, error) {
	m, err := models.Lookup(f.model)
	if err != nil {
		return gateway.Options{}, err
	}
	fams := strings.Split(f.types, ",")
	for i := range fams {
		fams[i] = strings.TrimSpace(fams[i])
	}
	spec, err := serving.NewPoolSpec(m, f.qos, fams...)
	if err != nil {
		return gateway.Options{}, err
	}

	opts := gateway.Options{
		Spec: spec,
		Dispatch: dispatch.Spec{
			Kind:            dispatch.Kind(f.policy),
			ShedQueueLength: f.shedQueue,
		},
		InitialBudget: f.budget,
		Sim: serving.SimOptions{
			Seed:      f.seed,
			Queries:   f.queries,
			RateScale: f.rateScale,
		},
		Seed:             f.seed,
		TimeScale:        f.timeScale,
		QueueDepth:       f.queueDepth,
		MaxBatch:         f.maxBatch,
		BatchTimeoutMs:   f.batchTimeoutMs,
		WarmupMs:         f.warmupMs,
		Logger:           f.logger,
		TraceSampleEvery: f.traceSampleEvery,
	}
	if f.initial != "" {
		cfg, err := serving.ParseConfig(f.initial)
		if err != nil {
			return gateway.Options{}, err
		}
		opts.Initial = cfg
	}
	if f.controller {
		opts.Controller = &controller.Params{
			WindowMs:     f.windowMs,
			TickMs:       f.tickMs,
			RelThreshold: f.threshold,
			DwellMs:      f.dwellMs,
			AdaptBudget:  f.adaptBudget,
		}
	}
	if f.proxyTarget != "" {
		opts.Backend = &gateway.ProxyBackend{Target: f.proxyTarget, TimeScale: f.timeScale, Seed: f.seed}
	} else {
		opts.Backend = gateway.NewSimBackend(m, f.timeScale, f.seed)
	}
	if f.chaosStorm != 0 || f.chaosFailures > 0 || f.chaosPriceStepMs > 0 {
		seed := f.chaosSeed
		if seed == 0 {
			seed = f.seed
		}
		opts.Chaos = chaos.GenerateStorm(chaos.StormOptions{
			Seed:                 seed,
			HorizonMs:            f.chaosHorizonMs,
			Families:             fams,
			RevocationMultiplier: f.chaosStorm,
			WarningMs:            f.chaosWarningMs,
			FailuresPerHour:      f.chaosFailures,
			PriceStepMs:          f.chaosPriceStepMs,
			RestoreAfterMs:       f.chaosRestoreMs,
		})
	}
	opts.UseSpot = f.useSpot
	if f.slo || f.sloTrigger {
		if f.sloTrigger && !f.controller {
			return gateway.Options{}, fmt.Errorf("-slo-trigger needs -controller")
		}
		opts.SLO = &gateway.SLOOptions{
			SampleEveryMs: f.sloSampleMs,
			Trigger:       f.sloTrigger,
		}
	}
	return opts, nil
}

// run builds the gateway (including any initial search) and serves until the
// context is cancelled, then drains connections and shuts the data plane
// down.
func run(ctx context.Context, addr string, opts gateway.Options) error {
	g, err := gateway.New(ctx, opts)
	if err != nil {
		return err
	}
	defer g.Close()
	logger := opts.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	logger.Info("ribbon-gateway pool ready",
		"config", g.Config().Key(),
		"model", opts.Spec.Model.Name,
		"dispatch", opts.Dispatch.Name())

	hs := &http.Server{
		Addr:        addr,
		Handler:     g.Handler(),
		BaseContext: func(net.Listener) context.Context { return ctx },
	}
	errc := make(chan error, 1)
	go func() {
		logger.Info("ribbon-gateway listening", "addr", addr)
		errc <- hs.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	logger.Info("ribbon-gateway shutting down")
	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return hs.Shutdown(drainCtx)
}
