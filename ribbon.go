// Package ribbon is the public API of the Ribbon reproduction: a
// cost-effective, QoS-aware deep-learning inference serving planner that
// builds a diverse (heterogeneous) pool of cloud instances and searches for
// the cheapest instance mix that meets a tail-latency target, using
// Bayesian Optimization with a Gaussian-Process surrogate (SC'21,
// arXiv:2207.11434).
//
// Quick start:
//
//	opt, err := ribbon.NewOptimizer(ribbon.ServiceConfig{
//		Model:    "MT-WND",
//		Families: []string{"g4dn", "c5", "r5n"},
//	})
//	if err != nil { ... }
//	rec, err := opt.Run(40)
//	fmt.Println(rec.BestConfig, rec.BestResult.CostPerHour)
//
// Beyond the one-shot Optimizer, the Controller (see controller.go and
// docs/controller.md) runs the same planning continuously: it watches an
// arrival stream for sustained load shifts and re-plans the pool with
// warm-started searches, pricing migrations before switching.
//
// The heavy lifting lives in internal packages; this package re-exports the
// stable vocabulary types (Config, Result, SearchResult, ...) as aliases so
// downstream code never imports internal paths.
package ribbon

import (
	"context"
	"errors"
	"fmt"
	"log/slog"

	"ribbon/internal/baselines"
	"ribbon/internal/cloud"
	"ribbon/internal/core"
	"ribbon/internal/dispatch"
	"ribbon/internal/models"
	"ribbon/internal/obs"
	"ribbon/internal/serving"
	"ribbon/internal/workload"
)

// Config is an instance-count vector over the pool's instance types.
type Config = serving.Config

// Result is one configuration evaluation: QoS satisfaction rate, cost, and
// latency statistics.
type Result = serving.Result

// PoolSpec fixes a searchable pool: model, ordered instance types, QoS
// percentile.
type PoolSpec = serving.PoolSpec

// Evaluator measures configurations; implement it to plug a real deployment
// (or a different simulator) into the optimizer.
type Evaluator = serving.Evaluator

// ModelProfile describes one deep-learning inference workload.
type ModelProfile = models.Profile

// InstanceType describes one purchasable cloud instance configuration.
type InstanceType = cloud.InstanceType

// SearchResult summarizes a completed search, including the evaluation
// trace.
type SearchResult = core.SearchResult

// Step is one evaluation within a search trace.
type Step = core.Step

// Strategy is a search method; Ribbon's BO searcher and the paper's
// baselines all implement it.
type Strategy = core.Strategy

// SearchOptions tunes the BO searcher (pruning threshold, ablation
// switches, per-step Progress callback, Parallelism, and the execution
// Mode); the zero value is the adaptive canonical configuration.
type SearchOptions = core.Options

// SearchMode selects the parallel-search execution strategy; see the Mode
// constants. Every mode but ModeSerial commits the same canonical
// trajectory — the choice only changes how the worker pool is kept busy.
type SearchMode = core.Mode

// The execution strategies a search can pin (or leave to ModeAuto).
const (
	// ModeAuto measures per-evaluation cost online and picks batched or
	// speculative prefetching accordingly. The zero value.
	ModeAuto = core.ModeAuto
	// ModeSerial pins the classic strictly-serial loop with per-step
	// hyper-parameter re-tuning — the perf-baseline algorithm.
	ModeSerial = core.ModeSerial
	// ModeBatched prefetches the q-EI batch runner-ups (depth Parallelism).
	ModeBatched = core.ModeBatched
	// ModeSpeculative prefetches the constant-liar chain (depth
	// 2*Parallelism).
	ModeSpeculative = core.ModeSpeculative
)

// DispatchSpec selects the query-routing policy of the serving pool; the
// zero value is the paper's preference-order FCFS rule. See
// internal/dispatch and docs/dispatch.md.
type DispatchSpec = dispatch.Spec

// DispatchPolicy is the pluggable routing interface; implement it and set
// DispatchSpec.Factory to route queries with custom logic.
type DispatchPolicy = dispatch.Policy

// DispatchObserver receives per-decision routing telemetry from every
// evaluation a service runs (pick latency, sheds by criticality). Purely
// passive: results are bit-identical with or without one. See
// docs/observability.md.
type DispatchObserver = dispatch.Observer

// Logger is the standard library's structured logger, shared by the
// library's telemetry surfaces (controller and fleet audit mirrors, the
// server, the gateway). A nil *Logger disables logging. See
// docs/observability.md.
type Logger = slog.Logger

// AuditEvent is one recorded control-plane decision; controllers and fleets
// publish their trails through Status snapshots.
type AuditEvent = obs.Event

// Log levels and formats for NewLogger.
const (
	LogDebug = slog.LevelDebug
	LogInfo  = slog.LevelInfo
	LogWarn  = slog.LevelWarn
	LogError = slog.LevelError

	LogText = obs.FormatText
	LogJSON = obs.FormatJSON
)

// NewLogger builds a slog text or JSON logger writing to w at the given level.
var NewLogger = obs.NewLogger

// The built-in dispatch policies.
const (
	DispatchFCFS        = dispatch.KindFCFS
	DispatchLeastLoaded = dispatch.KindLeastLoaded
	DispatchCostRandom  = dispatch.KindCostRandom
	DispatchCriticality = dispatch.KindCriticality
)

// ClassMix is the criticality composition of the generated workload; the
// zero value keeps the legacy all-Standard stream.
type ClassMix = workload.ClassMix

// Criticality is a query's service class (Critical / Standard / Sheddable).
type Criticality = workload.Criticality

// ErrUnknownModel is wrapped by LookupModel, DefaultPoolFamilies, and
// NewOptimizer when a model name cannot be resolved; match with errors.Is.
var ErrUnknownModel = models.ErrUnknownModel

// ErrUnknownInstance is wrapped by LookupInstance and NewOptimizer when an
// instance family is not in the catalog; match with errors.Is.
var ErrUnknownInstance = cloud.ErrUnknownFamily

// Models returns the built-in model catalog (Table 1 of the paper).
func Models() []ModelProfile { return models.Catalog() }

// LookupModel returns the built-in profile with the given name.
func LookupModel(name string) (ModelProfile, error) { return models.Lookup(name) }

// Instances returns the built-in AWS instance catalog (Table 2).
func Instances() []InstanceType { return cloud.Catalog() }

// LookupInstance returns the instance type with the given family code name.
func LookupInstance(family string) (InstanceType, error) { return cloud.Lookup(family) }

// SuggestPool applies the paper's pool-formation guideline (Sec. 3.3) to a
// model profile: the primary type is the most cost-effective instance that
// serves even the largest query within the strict QoS target, and the
// remaining slots go to instances that satisfy a ~30%-relaxed target ranked
// by cost-effectiveness. It returns the ordered instance families for
// ServiceConfig.Families.
func SuggestPool(profile ModelProfile, size int) ([]string, error) {
	pool, err := core.SuggestPool(profile, cloud.Catalog(), 1.3, size)
	if err != nil {
		return nil, err
	}
	fams := make([]string, len(pool))
	for i, inst := range pool {
		fams[i] = inst.Family
	}
	return fams, nil
}

// DefaultPoolFamilies returns the paper's Table 3 diverse pool for a
// built-in model: the dispatch-preference-ordered instance families.
func DefaultPoolFamilies(model string) ([]string, error) {
	switch model {
	case "CANDLE", "ResNet50", "VGG19":
		return []string{"c5a", "m5", "t3"}, nil
	case "MT-WND", "DIEN":
		return []string{"g4dn", "c5", "r5n"}, nil
	default:
		return nil, fmt.Errorf("ribbon: no default pool for model %q: %w", model, models.ErrUnknownModel)
	}
}

// ServiceConfig describes the inference service to optimize.
type ServiceConfig struct {
	// Model is a built-in model name (see Models). Leave empty and set
	// Profile instead to optimize a custom workload.
	Model string
	// Profile is an explicit model profile; it takes precedence over
	// Model when its Name is non-empty.
	Profile ModelProfile
	// Families is the ordered diverse pool. When nil, the Table 3
	// default for the model is used.
	Families []string
	// QoSPercentile is the tail-latency target percentile (e.g. 0.99 for
	// p99, the default; 0.98 reproduces the paper's relaxed target).
	QoSPercentile float64
	// QueriesPerEvaluation sets the evaluation window length; 4000 when
	// zero.
	QueriesPerEvaluation int
	// Seed makes every run reproducible; 42 when zero.
	Seed uint64
	// RateScale multiplies the model's default arrival rate (1 when
	// zero); use it to model heavier or lighter production load.
	RateScale float64
	// GaussianBatch switches the batch-size distribution from the
	// production heavy-tail log-normal to a mean-matched Gaussian.
	GaussianBatch bool
	// Dispatch selects the pool's query-routing policy; the zero value is
	// the paper's preference-order FCFS rule, which reproduces the
	// pre-subsystem results bit for bit.
	Dispatch DispatchSpec
	// ClassMix generates a mixed-criticality workload (consumed by the
	// criticality dispatch policy); the zero value keeps the legacy
	// all-Standard stream.
	ClassMix ClassMix
	// DispatchObserver, when non-nil, receives per-decision routing
	// telemetry (pick latency, sheds by criticality) from every evaluation
	// this service runs. Purely passive: search results are bit-identical
	// with or without it.
	DispatchObserver DispatchObserver
	// Bounds fixes the per-type search bounds m_i; when nil they are
	// discovered automatically per the paper's saturation rule.
	Bounds []int
	// Evaluator overrides the built-in simulator with a custom
	// deployment backend. The PoolSpec of the evaluator wins over the
	// fields above.
	Evaluator Evaluator
	// SearchOptions tunes the BO searcher (pruning threshold, ablation
	// switches, Parallelism, Mode). Setting SearchOptions.Parallelism > 1
	// lets Run evaluate up to that many configurations concurrently; the
	// result is bit-identical to the serial search — parallel evaluation
	// only prefetches and changes wall-clock time, with the prefetch
	// strategy picked by SearchOptions.Mode (adaptive when left zero). See
	// docs/performance.md.
	SearchOptions core.Options
}

// resolveSim resolves the service description into a pool spec and simulator
// options — the shared backend construction of NewOptimizer (when no custom
// Evaluator overrides it), AdaptToLoad, and NewController. The caller is
// responsible for the defaulting NewOptimizer applies (QoSPercentile, Seed).
func (cfg ServiceConfig) resolveSim() (serving.PoolSpec, serving.SimOptions, error) {
	profile := cfg.Profile
	if profile.Name == "" {
		if cfg.Model == "" {
			return serving.PoolSpec{}, serving.SimOptions{}, errors.New("ribbon: ServiceConfig needs Model, Profile, or Evaluator")
		}
		p, err := models.Lookup(cfg.Model)
		if err != nil {
			return serving.PoolSpec{}, serving.SimOptions{}, err
		}
		profile = p
	}
	fams := cfg.Families
	if fams == nil {
		def, err := DefaultPoolFamilies(profile.Name)
		if err != nil {
			return serving.PoolSpec{}, serving.SimOptions{}, fmt.Errorf("ribbon: %w (set Families explicitly for custom profiles)", err)
		}
		fams = def
	}
	spec, err := serving.NewPoolSpec(profile, cfg.QoSPercentile, fams...)
	if err != nil {
		return serving.PoolSpec{}, serving.SimOptions{}, err
	}
	batch := workload.HeavyTailLogNormalBatch
	if cfg.GaussianBatch {
		batch = workload.GaussianBatch
	}
	return spec, serving.SimOptions{
		Queries:   cfg.QueriesPerEvaluation,
		Seed:      cfg.Seed,
		RateScale: cfg.RateScale,
		Batch:     batch,
		Dispatch:  cfg.Dispatch,
		Mix:       cfg.ClassMix,
		Observer:  cfg.DispatchObserver,
	}, nil
}

// Optimizer plans a cost-minimal QoS-meeting pool configuration for one
// inference service.
type Optimizer struct {
	spec    PoolSpec
	eval    *serving.CachingEvaluator
	cfg     ServiceConfig
	bounds  []int
	lastRun *SearchResult
}

// normalize applies the service-wide defaults and shape-level validation
// shared by NewOptimizer and NewController.
func (cfg ServiceConfig) normalize() (ServiceConfig, error) {
	if cfg.QoSPercentile == 0 {
		cfg.QoSPercentile = 0.99
	}
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}
	if err := cfg.Dispatch.Validate(); err != nil {
		return cfg, fmt.Errorf("ribbon: %w", err)
	}
	if err := cfg.ClassMix.Validate(); err != nil {
		return cfg, fmt.Errorf("ribbon: %w", err)
	}
	return cfg, nil
}

// NewOptimizer validates the service description and prepares the
// evaluation backend. No configuration is deployed until Run or Evaluate is
// called.
func NewOptimizer(cfg ServiceConfig) (*Optimizer, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}

	var inner Evaluator
	if cfg.Evaluator != nil {
		inner = cfg.Evaluator
	} else {
		spec, opts, err := cfg.resolveSim()
		if err != nil {
			return nil, err
		}
		inner = serving.NewSimEvaluator(spec, opts)
	}
	if cfg.Bounds != nil && len(cfg.Bounds) != inner.Spec().Dim() {
		return nil, fmt.Errorf("ribbon: %d bounds for a %d-type pool", len(cfg.Bounds), inner.Spec().Dim())
	}
	return &Optimizer{
		spec: inner.Spec(),
		eval: serving.NewCachingEvaluator(inner),
		cfg:  cfg,
	}, nil
}

// Spec returns the pool being optimized.
func (o *Optimizer) Spec() PoolSpec { return o.spec }

// Bounds returns the per-type search bounds, discovering them on first use.
func (o *Optimizer) Bounds() ([]int, error) {
	return o.BoundsContext(context.Background())
}

// BoundsContext is Bounds with cooperative cancellation of the discovery
// probes; an already-discovered result is returned without consulting the
// context.
func (o *Optimizer) BoundsContext(ctx context.Context) ([]int, error) {
	if o.bounds == nil {
		if o.cfg.Bounds != nil {
			o.bounds = append([]int(nil), o.cfg.Bounds...)
		} else {
			b, err := core.DiscoverBoundsContext(ctx, o.eval, 24)
			if err != nil {
				return nil, err
			}
			o.bounds = b
		}
	}
	return append([]int(nil), o.bounds...), nil
}

// Evaluate deploys a single configuration and measures it.
func (o *Optimizer) Evaluate(cfg Config) Result { return o.eval.Evaluate(cfg) }

// EvaluateContext is Evaluate with an early-out on an already-cancelled
// context. A single evaluation is atomic — it cannot be interrupted midway —
// so the context is checked once before the deployment starts.
func (o *Optimizer) EvaluateContext(ctx context.Context, cfg Config) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	return o.eval.Evaluate(cfg), nil
}

// HomogeneousBaseline returns the cheapest single-type configuration that
// meets QoS — the pool Ribbon's savings are measured against.
func (o *Optimizer) HomogeneousBaseline() (Result, bool) {
	return baselines.HomogeneousOptimum(o.eval, 24)
}

// Run executes Ribbon's BO search with the given evaluation budget and
// returns the cheapest QoS-meeting configuration found plus the full trace.
func (o *Optimizer) Run(budget int) (SearchResult, error) {
	return o.RunContext(context.Background(), budget)
}

// RunContext is Run with cooperative cancellation: the context is checked
// before every evaluation, so cancelling it stops the search at the next
// step boundary. On cancellation the partial SearchResult accumulated so far
// is returned together with the context's error — Samples reports how much
// of the budget was actually spent — but the optimizer does not record the
// truncated search as its last run, so a previously completed Run still
// backs AdaptToLoad. Set ServiceConfig.SearchOptions.Progress to stream
// steps while the search runs.
func (o *Optimizer) RunContext(ctx context.Context, budget int) (SearchResult, error) {
	if budget <= 0 {
		return SearchResult{}, errors.New("ribbon: budget must be positive")
	}
	if err := ctx.Err(); err != nil {
		return SearchResult{}, err
	}
	bounds, err := o.BoundsContext(ctx)
	if err != nil {
		return SearchResult{}, err
	}
	res := core.NewSearcher(o.eval, bounds, o.cfg.Seed, o.cfg.SearchOptions).RunContext(ctx, budget)
	if err := ctx.Err(); err != nil {
		return res, err
	}
	o.lastRun = &res
	return res, nil
}

// AdaptToLoad re-optimizes after the arrival rate changed by the given
// factor relative to the model's default rate, warm-starting from the last
// Run per the paper's load-adaptation scheme. It requires a prior
// successful Run and the built-in simulator backend.
func (o *Optimizer) AdaptToLoad(newRateScale float64, budget int) (SearchResult, error) {
	return o.AdaptToLoadContext(context.Background(), newRateScale, budget)
}

// AdaptToLoadContext is AdaptToLoad with cooperative cancellation, with the
// same partial-result semantics as RunContext. The warm-start
// re-measurement of the previous optimum is atomic and always runs; the
// context takes effect from the first new search step onward.
func (o *Optimizer) AdaptToLoadContext(ctx context.Context, newRateScale float64, budget int) (SearchResult, error) {
	if o.lastRun == nil || !o.lastRun.Found {
		return SearchResult{}, errors.New("ribbon: AdaptToLoad needs a prior successful Run")
	}
	if o.cfg.Evaluator != nil {
		return SearchResult{}, errors.New("ribbon: AdaptToLoad requires the built-in simulator backend")
	}
	if newRateScale <= 0 {
		return SearchResult{}, errors.New("ribbon: rate scale must be positive")
	}
	if err := ctx.Err(); err != nil {
		return SearchResult{}, err
	}
	batch := workload.HeavyTailLogNormalBatch
	if o.cfg.GaussianBatch {
		batch = workload.GaussianBatch
	}
	newEval := serving.NewCachingEvaluator(serving.NewSimEvaluator(o.spec, serving.SimOptions{
		Queries:   o.cfg.QueriesPerEvaluation,
		Seed:      o.cfg.Seed,
		RateScale: newRateScale,
		Batch:     batch,
		Dispatch:  o.cfg.Dispatch,
		Mix:       o.cfg.ClassMix,
		Observer:  o.cfg.DispatchObserver,
	}))
	bounds, err := o.BoundsContext(ctx)
	if err != nil {
		return SearchResult{}, err
	}
	s := core.NewAdaptedSearcher(newEval, bounds, o.cfg.Seed+1, o.cfg.SearchOptions,
		o.lastRun.Steps, o.lastRun.BestResult)
	res := s.RunContext(ctx, budget)
	if err := ctx.Err(); err != nil {
		// Roll back: a cancelled adaptation must not switch the
		// optimizer to the new load with only a truncated search behind
		// it — the caller keeps the pre-adaptation state and can retry.
		return res, err
	}
	o.eval = newEval
	o.cfg.RateScale = newRateScale
	o.lastRun = &res
	return res, nil
}

// ExplorationStats reports the exploration accounting since the optimizer
// was created (or since the last AdaptToLoad): distinct configurations
// deployed, how many violated QoS, and their summed $/hour.
func (o *Optimizer) ExplorationStats() (samples, violations int, costPerHour float64) {
	return o.eval.Samples(), o.eval.Violations(), o.eval.ExplorationCost()
}
