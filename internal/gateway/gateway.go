// Package gateway is Ribbon's live serving data plane: an ingress that
// admits inference requests, classifies them by criticality, routes them to
// a heterogeneous pool of backend instances under the same dispatch-policy
// vocabulary the offline simulator searches over (internal/dispatch), and
// streams every measured arrival into the continuous controller
// (internal/controller) so the pool it serves on is the pool the optimizer
// would pick for the load it is actually receiving.
//
// The dispatch hot path is lock-free: the live instance set is an immutable
// snapshot behind one atomic pointer, each instance owns bounded per-rank
// queues (criticality = queue priority), and all counters are atomics.
// Reconfigurations install a new snapshot and drain-then-retire the
// instances that fell out of it; admitted requests are never dropped by a
// pool change. Requests themselves are pooled, so steady-state ingest
// allocates nothing per request.
//
// Backends are pluggable: SimBackend sleeps out the calibrated service-time
// model (optionally time-compressed) for tests, benchmarks, and floods;
// ProxyBackend forwards to a real HTTP serving endpoint. See
// docs/gateway.md.
package gateway

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"ribbon/internal/chaos"
	"ribbon/internal/controller"
	"ribbon/internal/core"
	"ribbon/internal/dispatch"
	"ribbon/internal/obs"
	"ribbon/internal/serving"
	"ribbon/internal/slo"
	"ribbon/internal/workload"
)

// Outcome classifies what the data plane did with an ingested request.
type Outcome int

// The admission outcomes.
const (
	// OutcomeQueued: admitted and placed on an instance queue.
	OutcomeQueued Outcome = iota
	// OutcomeShed: dropped by the criticality policy under queue pressure.
	OutcomeShed
	// OutcomeRejected: refused — every queue full, or no live pool.
	OutcomeRejected
)

// String names the outcome for logs and errors.
func (o Outcome) String() string {
	switch o {
	case OutcomeQueued:
		return "queued"
	case OutcomeShed:
		return "shed"
	case OutcomeRejected:
		return "rejected"
	}
	return fmt.Sprintf("outcome(%d)", int(o))
}

// Options configures a Gateway.
type Options struct {
	// Spec is the served pool: model, instance types in preference order,
	// QoS percentile. Required.
	Spec serving.PoolSpec
	// Backend executes batches. Required; NewSimBackend for a simulated
	// plane, ProxyBackend for a real endpoint.
	Backend Backend
	// Dispatch selects the routing policy by the same spec the simulator
	// uses. Factory overrides are not supported live (the live router is
	// lock-free and cannot host the simulator's Policy state machines).
	Dispatch dispatch.Spec

	// Initial, when non-nil, fixes the starting configuration (evaluated
	// once to price it and seed the controller's warm-start trace). When
	// nil, a cold search with InitialBudget evaluations picks it.
	Initial serving.Config
	// InitialBudget bounds the cold search; 40 when zero.
	InitialBudget int
	// Sim configures the controller's evaluation backend (never the live
	// plane): stream length, seed, base RateScale, dispatch policy for
	// evaluations, etc.
	Sim serving.SimOptions
	// Search tunes every search the controller launches.
	Search core.Options
	// Bounds fixes the per-type search bounds; discovered when nil.
	Bounds []int

	// Controller, when non-nil, enables live adaptation with these loop
	// parameters: measured arrivals stream into the rate estimator and
	// applied reconfigurations re-shape the live pool. Nil serves a static
	// pool.
	Controller *controller.Params

	// Chaos, when non-nil, replays a capacity-event schedule against the
	// live plane in stream time: revocations and failures drain-then-retire
	// matching live instances (admitted work is never dropped), restores
	// respawn them with the warm-up charge, and every event is forwarded to
	// the controller's capacity path. Events also inject on demand via
	// Inject.
	Chaos *chaos.Schedule
	// UseSpot prices the controller's searches and spend meter at live
	// spot-market rates (see controller.Config.UseSpot). Only meaningful
	// with Controller set.
	UseSpot bool

	// Seed derives the router's randomized choices (cost-random policy).
	Seed uint64
	// TimeScale compresses stream time into wall time (see SimBackend);
	// 1 when zero. The flood drivers run at 0.02–0.1.
	TimeScale float64
	// QueueDepth bounds each instance's per-rank queue; 64 when zero.
	QueueDepth int
	// MaxBatch fuses up to this many queued requests into one backend
	// call; 1 (no batching — simulator parity) when zero.
	MaxBatch int
	// BatchTimeoutMs is the flush timeout in stream milliseconds: a
	// partially filled batch waits at most this long for stragglers;
	// 2 when zero. Only meaningful with MaxBatch > 1.
	BatchTimeoutMs float64
	// WarmupMs charges each instance added by a reconfiguration this much
	// stream time before it serves (boot + model load); 0 when zero.
	// Instances of the initial pool start warm.
	WarmupMs float64
	// FeedDepth buffers the controller arrival feed; 65536 when zero.
	// Overflow is dropped (counted, never blocking the data plane).
	FeedDepth int

	// Registry receives the gateway's metric families (served at
	// GET /metrics). A private registry is created when nil.
	Registry *obs.Registry
	// Logger, when non-nil, mirrors control-plane audit events as
	// structured log lines. The data-plane hot path never logs.
	Logger *slog.Logger
	// TraceCapacity bounds the sampled-trace ring readable at
	// GET /v1/gateway/traces; 256 when zero, negative disables tracing.
	TraceCapacity int
	// TraceSampleEvery samples one request trace in every N; 16 when zero.
	TraceSampleEvery int
	// AuditCapacity bounds the retained audit events; 512 when zero.
	AuditCapacity int
	// SLO, when non-nil, runs a burn-rate SLO engine over the gateway's
	// per-tier counters, sampled in stream time on the admit path. Alert
	// transitions land on the audit trail (and the structured log); with
	// SLO.Trigger set, firing page alerts arm the controller's "slo"
	// capacity trigger. See SLOOptions.
	SLO *SLOOptions
}

// Gateway is the live data plane. Create with New, ingest with Ingest /
// IngestAsync (or serve the HTTP API via Handler), observe with Metrics,
// shut down with Close.
type Gateway struct {
	ctx    context.Context
	cancel context.CancelFunc

	spec     serving.PoolSpec
	backend  Backend
	dispatch dispatch.Spec
	qosMs    float64
	seed     uint64

	timeScale      float64
	queueDepth     int
	maxBatch       int
	batchTimeoutMs float64
	warmupMs       float64

	// poolMu serializes pool mutations (controller reconfigurations and
	// chaos injections); the routing hot path still reads the snapshot with
	// one lock-free atomic load.
	poolMu      sync.Mutex
	pool        atomic.Pointer[pool]
	totalQueued atomic.Int64
	nextInstID  atomic.Int64

	// Chaos-injection state. chaosNextBits holds the next scheduled event
	// time (math.Float64bits, +Inf when exhausted) so the ingest hot path
	// pays one atomic load; chaosLost tracks per-slot instances chaos took
	// and has not restored, bounding restores.
	chaos         *chaos.Schedule
	chaosMu       sync.Mutex
	chaosIdx      int
	chaosNextBits atomic.Uint64
	chaosLost     []int

	// SLO engine state. sloNextBits holds the next stream-time sample due
	// (math.Float64bits) so the admit hot path pays one atomic load; the
	// losing CAS contenders never observe twice.
	slo         *slo.Engine
	sloTrigger  bool
	sloEveryMs  float64
	sloNextBits atomic.Uint64

	m      metrics
	traces *obs.TraceRing
	reqs   sync.Pool
	rngs   rngLease

	// epoch anchors stream time to wall time: stream now =
	// (wall - epoch) / timeScale. It is aligned on the first ingest so the
	// setup cost (initial search) does not skew latencies.
	epochOnce sync.Once
	epochNS   atomic.Int64

	instMu sync.Mutex
	all    []*instance // every instance ever spawned, for Close

	ctrl     *controller.Controller
	feed     chan float64
	ctrlDone chan struct{}
	ctrlMu   sync.Mutex
	ctrlStat controller.Status
	ctrlErr  error

	closeOnce sync.Once
}

// New builds the gateway: resolves the initial pool configuration (fixed or
// cold-searched), spawns the live instances, and starts the controller loop
// when adaptation is enabled. The context bounds the setup searches and the
// gateway's lifetime.
func New(ctx context.Context, opts Options) (*Gateway, error) {
	if opts.Spec.Dim() == 0 {
		return nil, errors.New("gateway: empty pool spec")
	}
	if opts.Backend == nil {
		return nil, errors.New("gateway: nil backend")
	}
	if opts.Dispatch.Factory != nil {
		return nil, errors.New("gateway: custom dispatch factories are not supported live")
	}
	if err := opts.Dispatch.Validate(); err != nil {
		return nil, fmt.Errorf("gateway: %w", err)
	}
	timeScale := opts.TimeScale
	if timeScale == 0 {
		timeScale = 1
	}
	if timeScale < 0 {
		return nil, errors.New("gateway: negative time scale")
	}
	queueDepth := opts.QueueDepth
	if queueDepth == 0 {
		queueDepth = 64
	}
	if queueDepth < 1 {
		return nil, errors.New("gateway: queue depth must be positive")
	}
	maxBatch := opts.MaxBatch
	if maxBatch == 0 {
		maxBatch = 1
	}
	if maxBatch < 1 {
		return nil, errors.New("gateway: max batch must be positive")
	}
	batchTimeout := opts.BatchTimeoutMs
	if batchTimeout == 0 {
		batchTimeout = 2
	}
	if batchTimeout < 0 {
		return nil, errors.New("gateway: negative batch timeout")
	}
	if opts.WarmupMs < 0 {
		return nil, errors.New("gateway: negative warm-up")
	}
	feedDepth := opts.FeedDepth
	if feedDepth == 0 {
		feedDepth = 65536
	}
	if feedDepth < 1 {
		return nil, errors.New("gateway: feed depth must be positive")
	}

	gctx, cancel := context.WithCancel(ctx)
	g := &Gateway{
		ctx:            gctx,
		cancel:         cancel,
		spec:           opts.Spec,
		backend:        opts.Backend,
		dispatch:       opts.Dispatch,
		qosMs:          opts.Spec.Model.QoSLatencyMs,
		seed:           opts.Seed,
		timeScale:      timeScale,
		queueDepth:     queueDepth,
		maxBatch:       maxBatch,
		batchTimeoutMs: batchTimeout,
		warmupMs:       opts.WarmupMs,
	}

	if opts.Chaos != nil {
		if err := opts.Chaos.Validate(); err != nil {
			cancel()
			return nil, err
		}
		g.chaos = opts.Chaos.Clone()
	}
	g.chaosLost = make([]int, opts.Spec.Dim())
	next := math.Inf(1)
	if g.chaos != nil && len(g.chaos.Events) > 0 {
		next = g.chaos.Events[0].AtMs
	}
	g.chaosNextBits.Store(math.Float64bits(next))

	reg := opts.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	auditCap := opts.AuditCapacity
	if auditCap == 0 {
		auditCap = 512
	}
	g.m.init(reg, opts.Dispatch.Name(), opts.Logger, auditCap)
	if opts.TraceCapacity >= 0 {
		g.traces = obs.NewTraceRing(opts.TraceCapacity, opts.TraceSampleEvery)
	}
	g.registerGauges(reg)
	if opts.SLO != nil {
		if err := g.initSLO(opts.SLO); err != nil {
			cancel()
			return nil, err
		}
	}

	if opts.Controller == nil && opts.Initial != nil {
		// Static pool, fixed configuration: nothing to search or evaluate.
		if len(opts.Initial) != opts.Spec.Dim() {
			cancel()
			return nil, fmt.Errorf("gateway: initial config has %d types for a %d-type pool",
				len(opts.Initial), opts.Spec.Dim())
		}
		g.install(g.spawn(opts.Initial, 0))
		return g, nil
	}

	initial, bounds, err := g.resolveInitial(ctx, opts)
	if err != nil {
		cancel()
		return nil, err
	}
	g.install(g.spawn(initial.BestConfig, 0))

	if opts.Controller != nil {
		cc := controller.Config{
			Spec:    opts.Spec,
			Sim:     opts.Sim,
			Bounds:  bounds,
			Search:  opts.Search,
			Initial: initial,
			Params:  *opts.Controller,
			UseSpot: opts.UseSpot,
			// Chaos stays nil here: the gateway itself replays the schedule
			// on the live plane and feeds ObserveCapacity, so the controller
			// sees each event exactly once.
		}
		ctrl, err := controller.New(cc)
		if err != nil {
			cancel()
			return nil, err
		}
		g.ctrl = ctrl
		g.feed = make(chan float64, feedDepth)
		g.ctrlDone = make(chan struct{})
		go g.runController()
	}
	return g, nil
}

// resolveInitial establishes the starting configuration and the search
// bounds: either the fixed Options.Initial (evaluated once and wrapped as a
// one-step "fixed" search so the controller can still warm-start from it) or
// a cold search.
func (g *Gateway) resolveInitial(ctx context.Context, opts Options) (*core.SearchResult, []int, error) {
	ev := serving.NewCachingEvaluator(serving.NewSimEvaluator(opts.Spec, opts.Sim))
	bounds := opts.Bounds
	if bounds == nil {
		b, err := core.DiscoverBoundsContext(ctx, ev, 24)
		if err != nil {
			return nil, nil, fmt.Errorf("gateway: bounds discovery: %w", err)
		}
		bounds = b
	} else if len(bounds) != opts.Spec.Dim() {
		return nil, nil, fmt.Errorf("gateway: %d bounds for a %d-type pool", len(bounds), opts.Spec.Dim())
	}

	if opts.Initial != nil {
		if len(opts.Initial) != opts.Spec.Dim() {
			return nil, nil, fmt.Errorf("gateway: initial config has %d types for a %d-type pool",
				len(opts.Initial), opts.Spec.Dim())
		}
		res := ev.Evaluate(opts.Initial)
		if !res.MeetsQoS {
			return nil, nil, fmt.Errorf("gateway: initial config %v does not meet QoS at the base load", opts.Initial)
		}
		obj := core.Objective(opts.Spec, bounds, res)
		sr := &core.SearchResult{
			Strategy:   "fixed",
			BestConfig: opts.Initial.Clone(),
			BestResult: res,
			Found:      true,
			Steps: []core.Step{{
				Config:    opts.Initial.Clone(),
				Result:    res,
				Objective: obj,
				BestCost:  res.CostPerHour,
			}},
			Samples: 1,
		}
		return sr, bounds, nil
	}

	budget := opts.InitialBudget
	if budget == 0 {
		budget = 40
	}
	res := core.NewSearcher(ev, bounds, opts.Sim.Seed, opts.Search).RunContext(ctx, budget)
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if !res.Found {
		return nil, nil, errors.New("gateway: initial search found no QoS-meeting configuration")
	}
	return &res, bounds, nil
}

// registerGauges publishes the live-load gauges, sampled at exposition time
// so the hot path never updates them.
func (g *Gateway) registerGauges(reg *obs.Registry) {
	reg.GaugeFunc("ribbon_gateway_queue_depth",
		"Requests queued across the live pool.",
		func() float64 { return float64(g.totalQueued.Load()) })
	reg.GaugeFunc("ribbon_gateway_inflight",
		"Requests being served by a backend right now.",
		func() float64 {
			var n int64
			if p := g.pool.Load(); p != nil {
				for _, inst := range p.instances {
					n += inst.inflight.Load()
				}
			}
			return float64(n)
		})
	reg.GaugeFunc("ribbon_gateway_pool_instances",
		"Instances in the live pool (retiring instances excluded once replaced).",
		func() float64 {
			if p := g.pool.Load(); p != nil {
				return float64(len(p.instances))
			}
			return 0
		})
	reg.GaugeFunc("ribbon_gateway_pool_cost_per_hour",
		"Hourly price of the live pool, dollars.",
		func() float64 {
			var c float64
			if p := g.pool.Load(); p != nil {
				for _, inst := range p.instances {
					c += inst.typ.PricePerHour
				}
			}
			return c
		})
}

// runController drives the control loop off the live feed and applies its
// decisions to the live pool.
func (g *Gateway) runController() {
	defer close(g.ctrlDone)
	stat, err := g.ctrl.RunLive(g.ctx, g.feed, func(rec controller.Reconfiguration) {
		g.m.recordDecision(rec.AtMs, rec)
		if rec.Applied {
			g.applyConfig(rec.To)
		}
	})
	g.ctrlMu.Lock()
	g.ctrlStat, g.ctrlErr = stat, err
	g.ctrlMu.Unlock()
}

// scaled converts stream-time milliseconds to a wall-clock duration.
func (g *Gateway) scaled(ms float64) time.Duration {
	return time.Duration(ms * g.timeScale * float64(time.Millisecond))
}

// setEpoch anchors stream time so that the given arrival timestamp
// corresponds to "now" on the wall clock. First ingest wins.
func (g *Gateway) setEpoch(arrivalMs float64) {
	g.epochOnce.Do(func() {
		g.epochNS.Store(time.Now().UnixNano() - int64(arrivalMs*g.timeScale*float64(time.Millisecond)))
	})
}

// nowMs is the current stream time. Before the first ingest it is 0.
func (g *Gateway) nowMs() float64 {
	e := g.epochNS.Load()
	if e == 0 {
		return 0
	}
	return float64(time.Now().UnixNano()-e) / g.timeScale / float64(time.Millisecond)
}

// spawn builds the live instance set for cfg, starting one worker per
// instance. warmupMs is charged to every spawned instance (0 for the
// initial pool).
func (g *Gateway) spawn(cfg serving.Config, warmupMs float64) *pool {
	return g.grow(nil, cfg, warmupMs)
}

// grow builds a snapshot realizing cfg, reusing as many instances from prev
// as the new counts allow (oldest kept first) and spawning the rest.
func (g *Gateway) grow(prev *pool, cfg serving.Config, warmupMs float64) *pool {
	p := &pool{config: cfg.Clone()}
	for slot, want := range cfg {
		kept := 0
		if prev != nil {
			for _, inst := range prev.instances {
				if inst.slot != slot || kept >= want {
					continue
				}
				p.instances = append(p.instances, inst)
				kept++
			}
		}
		for i := kept; i < want; i++ {
			inst := newInstance(int(g.nextInstID.Add(1)), slot, g.spec.Types[slot], g.queueDepth, warmupMs)
			g.instMu.Lock()
			g.all = append(g.all, inst)
			g.instMu.Unlock()
			go g.worker(inst)
			p.instances = append(p.instances, inst)
		}
	}
	return p
}

// install publishes a snapshot as the live pool.
func (g *Gateway) install(p *pool) { g.pool.Store(p) }

// applyConfig reshapes the live pool to next: instances the new counts keep
// stay (oldest first — they are warm), excess instances drain-then-retire,
// added instances spawn with the warm-up charge. A controller decision also
// settles any outstanding chaos losses — the decided pool is provisioned
// whole. The hot path only ever sees complete snapshots.
func (g *Gateway) applyConfig(next serving.Config) {
	g.poolMu.Lock()
	defer g.poolMu.Unlock()
	for i := range g.chaosLost {
		g.chaosLost[i] = 0
	}
	g.applyConfigLocked(next)
}

// applyConfigLocked is applyConfig under an already-held poolMu.
func (g *Gateway) applyConfigLocked(next serving.Config) {
	prev := g.pool.Load()
	p := g.grow(prev, next, g.warmupMs)
	g.install(p)
	if prev == nil {
		return
	}
	live := make(map[*instance]bool, len(p.instances))
	for _, inst := range p.instances {
		live[inst] = true
	}
	for _, inst := range prev.instances {
		if !live[inst] {
			inst.retiring.Store(true)
			close(inst.stop)
			g.m.recordRetire(g.nowMs(), "drain_retire", inst)
		}
	}
}

// feedArrival streams one measured arrival timestamp to the controller.
// Never blocks: a full feed drops the sample and counts it.
func (g *Gateway) feedArrival(t float64) {
	if g.feed == nil {
		return
	}
	select {
	case g.feed <- t:
	default:
		g.m.feedDropped.Add(1)
	}
}

// getRequest leases a pooled request.
func (g *Gateway) getRequest() *request {
	r, _ := g.reqs.Get().(*request)
	if r == nil {
		r = &request{done: make(chan Response, 1)}
	}
	select { // drain a response a vanished waiter never read
	case <-r.done:
	default:
	}
	return r
}

func (g *Gateway) putRequest(r *request) {
	r.payload = nil
	r.wait = false
	r.attempts = 0
	g.reqs.Put(r)
}

// respond completes a request: hand the response to the waiter, or recycle
// the request directly for fire-and-forget ingests.
func (g *Gateway) respond(r *request, resp Response) {
	if r.wait {
		r.done <- resp
	} else {
		g.putRequest(r)
	}
}

// admit validates, stamps, and routes one request. It owns the controller
// feed (every offered arrival is load, even ones that end up shed) and the
// trace sampling decision; span timestamps are only taken for sampled
// requests, so the unsampled hot path pays one atomic increment.
func (g *Gateway) admit(arrivalMs float64, batch int, class workload.Criticality, payload []byte, wait bool, traceID string) (*request, Outcome) {
	g.setEpoch(arrivalMs)
	if g.chaos != nil {
		g.maybeInjectChaos(arrivalMs)
	}
	if g.slo != nil {
		g.maybeSampleSLO(arrivalMs)
	}
	g.feedArrival(arrivalMs)
	r := g.getRequest()
	r.arrivalMs = arrivalMs
	r.batch = batch
	r.rank = class.Normalize().Rank()
	r.payload = payload
	r.wait = wait
	r.id = traceID
	r.seq, r.sampled = g.traces.Next()
	if r.sampled {
		r.tAdmit = g.nowMs()
	}
	out := g.route(r)
	if out != OutcomeQueued {
		if r.sampled {
			g.recordShortTrace(r, out)
		}
		g.putRequest(r)
		return nil, out
	}
	g.m.accepted.Inc()
	return r, OutcomeQueued
}

// recordShortTrace captures the timeline of a request that never made it
// onto a queue: a single admit span with the terminal outcome.
func (g *Gateway) recordShortTrace(r *request, out Outcome) {
	end := g.nowMs()
	g.traces.Record(func(t *obs.Trace) {
		t.Seq = r.seq
		t.ID = r.id
		t.Class = tierNames[r.rank]
		t.Outcome = out.String()
		t.ArrivalMs = r.arrivalMs
		t.Spans = append(t.Spans, obs.Span{Name: "admit", StartMs: r.tAdmit, EndMs: end})
	})
}

// IngestAsync admits a request without waiting for completion: the outcome
// says whether it was queued, shed, or rejected; service and latency land in
// the metrics when the backend finishes. This is the flood drivers' path —
// it allocates nothing per request.
func (g *Gateway) IngestAsync(arrivalMs float64, batch int, class workload.Criticality) Outcome {
	if batch < 1 {
		batch = 1
	}
	_, out := g.admit(arrivalMs, batch, class, nil, false, "")
	return out
}

// Ingest admits a request and waits for its completion (or ctx). The
// returned outcome distinguishes served, shed, and rejected; for
// OutcomeQueued the response carries latency, service time, serving
// instance, and the backend body if any.
func (g *Gateway) Ingest(ctx context.Context, arrivalMs float64, batch int, class workload.Criticality, payload []byte) (Response, Outcome, error) {
	return g.IngestWithID(ctx, arrivalMs, batch, class, payload, "")
}

// IngestWithID is Ingest with an externally assigned request ID (adopted
// from an X-Request-Id header) attached to the request's trace.
func (g *Gateway) IngestWithID(ctx context.Context, arrivalMs float64, batch int, class workload.Criticality, payload []byte, traceID string) (Response, Outcome, error) {
	if batch < 1 {
		batch = 1
	}
	r, out := g.admit(arrivalMs, batch, class, payload, true, traceID)
	if out != OutcomeQueued {
		return Response{}, out, nil
	}
	select {
	case resp := <-r.done:
		g.putRequest(r)
		return resp, OutcomeQueued, resp.Err
	case <-ctx.Done():
		// The worker still owns r; it goes to the GC, not the pool.
		return Response{}, OutcomeQueued, ctx.Err()
	case <-g.ctx.Done():
		return Response{}, OutcomeQueued, g.ctx.Err()
	}
}

// Metrics assembles a point-in-time snapshot of the data plane, reading the
// same registry children GET /metrics exposes.
func (g *Gateway) Metrics() Snapshot {
	s := Snapshot{
		Accepted:        g.m.accepted.Value(),
		Failed:          g.m.failed.Value(),
		Requeued:        g.m.requeued.Value(),
		FeedDropped:     g.m.feedDropped.Value(),
		Batches:         g.m.batches.Value(),
		BatchedRequests: g.m.batchedReqs.Value(),
		QueueDepth:      g.totalQueued.Load(),
		Tiers:           g.m.snapshotTiers(),
		Events:          g.m.trail.Events(),
	}
	for _, t := range s.Tiers {
		s.Completed += t.Completed
		s.Shed += t.Shed
		s.Rejected += t.Rejected
	}
	if p := g.pool.Load(); p != nil {
		s.Instances = make([]InstanceSnapshot, len(p.instances))
		for i, inst := range p.instances {
			s.Inflight += inst.inflight.Load()
			s.Instances[i] = InstanceSnapshot{
				ID:         inst.id,
				Type:       inst.typ.Name(),
				QueueDepth: inst.depth.Load(),
				Inflight:   inst.inflight.Load(),
				Served:     inst.served.Load(),
				Retiring:   inst.retiring.Load(),
			}
		}
	}
	g.m.mu.Lock()
	s.Reconfigurations = append([]controller.Reconfiguration(nil), g.m.reconfig...)
	g.m.mu.Unlock()
	return s
}

// Registry returns the gateway's metrics registry, for mounting at
// GET /metrics or sharing with other components in the same process.
func (g *Gateway) Registry() *obs.Registry { return g.m.reg }

// Traces returns the sampled request traces, newest first; nil when tracing
// is disabled.
func (g *Gateway) Traces() []obs.Trace { return g.traces.Traces() }

// Events returns the gateway's control-plane audit trail, oldest first.
func (g *Gateway) Events() []obs.Event { return g.m.trail.Events() }

// Config returns the currently deployed instance-count vector.
func (g *Gateway) Config() serving.Config {
	if p := g.pool.Load(); p != nil {
		return p.config.Clone()
	}
	return nil
}

// ControllerStatus returns the control loop's status: the live snapshot
// while it runs, the final status after Close. ok is false when adaptation
// is disabled.
func (g *Gateway) ControllerStatus() (controller.Status, bool) {
	if g.ctrl == nil {
		return controller.Status{}, false
	}
	select {
	case <-g.ctrlDone:
		g.ctrlMu.Lock()
		defer g.ctrlMu.Unlock()
		return g.ctrlStat, true
	default:
		return g.ctrl.Snapshot(), true
	}
}

// Drain closes the controller feed and waits for the control loop to
// consume the backlog and finish (final closing tick included). Serving
// continues; call before reading a final decision trace.
func (g *Gateway) Drain() {
	if g.feed == nil {
		return
	}
	g.closeOnce.Do(func() { close(g.feed) })
	<-g.ctrlDone
}

// Close shuts the gateway down: stops the controller, cancels every worker,
// and waits for them to exit. In-flight requests get the context error.
func (g *Gateway) Close() {
	if g.feed != nil {
		g.closeOnce.Do(func() { close(g.feed) })
	}
	g.cancel()
	if g.ctrlDone != nil {
		<-g.ctrlDone
	}
	g.instMu.Lock()
	all := append([]*instance(nil), g.all...)
	g.instMu.Unlock()
	for _, inst := range all {
		<-inst.done
	}
}
