// Package controller turns Ribbon's one-shot pool optimizer into a
// continuous control loop — the paper's load-fluctuation response (Sec. 4,
// Fig. 16) run as a long-lived process rather than a single AdaptToLoad
// call.
//
// The loop is observe -> detect -> reconfigure:
//
//   - A sliding-window rate estimator ingests the arrival stream (live feed
//     or replayed trace; the controller cannot tell the difference) and
//     continuously estimates the load as a scale factor relative to the
//     model's base arrival rate.
//   - A change detector with relative-threshold + dwell-time hysteresis
//     decides when the estimate reflects a real shift rather than Poisson
//     noise: the deviation must exceed RelThreshold in a consistent
//     direction for DwellMs of stream time.
//   - On a confirmed shift the controller re-searches the configuration
//     space at the new load with a bounded budget, warm-started from the
//     incumbent: the previous trace seeds the new Bayesian optimization as
//     pseudo-observations (core.NewAdaptedSearcher), so convergence costs a
//     fraction of a cold search. The winning pool replaces the incumbent
//     only if it meets QoS and — when the incumbent also still meets QoS —
//     beats it on cost with the one-off migration charge (MigrationModel)
//     amortized in. Every decision, applied or rejected, is logged to the
//     reconfiguration history.
//
// Everything is deterministic per (seed, stream): the estimator and detector
// are pure state machines over stream time, and each re-search derives its
// seed from the base seed and the reconfiguration ordinal. Replaying the
// same stream yields a byte-identical history. See docs/controller.md for
// the design rationale and tuning guidance.
package controller

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"

	"ribbon/internal/chaos"
	"ribbon/internal/core"
	"ribbon/internal/obs"
	"ribbon/internal/serving"
	"ribbon/internal/slo"
	"ribbon/internal/workload"
)

// Params tunes the control loop. The zero value of every field means its
// documented default; Validate rejects negative values.
type Params struct {
	// WindowMs is the sliding-window length of the load estimator;
	// 10000 (10s of stream time) when zero. Longer windows smooth harder
	// but lag real shifts by more.
	WindowMs float64
	// TickMs is the detector evaluation cadence; 1000 when zero. The
	// controller only acts at tick boundaries, so dwell precision is
	// +-TickMs.
	TickMs float64
	// RelThreshold is the minimum relative deviation |est/applied - 1|
	// that counts as an excursion; 0.25 when zero.
	RelThreshold float64
	// DwellMs is how long an excursion must persist, in one direction,
	// before the shift is confirmed; 4000 when zero. Negative disables
	// dwell (confirm on first excursion tick) — only sensible in tests.
	DwellMs float64
	// CooldownMs suppresses detection for this long after a confirmed
	// shift, on top of the dwell the next shift must accumulate; 0 when
	// zero (dwell alone is the hysteresis).
	CooldownMs float64
	// MigrationSetupHours and MigrationTeardownHours price the one-off
	// reconfiguration charges per added/removed instance, in hours of that
	// instance's hourly price; 0.05 and 0.01 when zero.
	MigrationSetupHours    float64
	MigrationTeardownHours float64
	// AmortizationHours is the horizon over which a candidate's $/hour
	// saving must repay the migration charge; 1 when zero.
	AmortizationHours float64
	// AdaptBudget bounds the real evaluations of each warm-started
	// re-search; 16 when zero.
	AdaptBudget int
	// EmergencyCooldownMs gates capacity-event responses (emergency
	// re-search on failure, drain replacement, price re-optimization):
	// after one fires, further capacity triggers accumulate silently for
	// this long and are then handled by a single consolidated re-search —
	// the anti-thrash guard that keeps a revocation storm from burning a
	// search per casualty. 15000 when zero; negative disables the gate.
	EmergencyCooldownMs float64
	// PriceRelThreshold is the relative spot-market move |factor/last - 1|
	// that triggers a price-aware re-optimization (UseSpot pools only);
	// 0.15 when zero.
	PriceRelThreshold float64
}

func (p Params) withDefaults() Params {
	if p.WindowMs == 0 {
		p.WindowMs = 10_000
	}
	if p.TickMs == 0 {
		p.TickMs = 1_000
	}
	if p.RelThreshold == 0 {
		p.RelThreshold = 0.25
	}
	if p.DwellMs == 0 {
		p.DwellMs = 4_000
	}
	if p.DwellMs < 0 {
		p.DwellMs = 0
	}
	if p.MigrationSetupHours == 0 {
		p.MigrationSetupHours = 0.05
	}
	if p.MigrationTeardownHours == 0 {
		p.MigrationTeardownHours = 0.01
	}
	if p.AmortizationHours == 0 {
		p.AmortizationHours = 1
	}
	if p.AdaptBudget == 0 {
		p.AdaptBudget = 16
	}
	if p.EmergencyCooldownMs == 0 {
		p.EmergencyCooldownMs = 15_000
	}
	if p.EmergencyCooldownMs < 0 {
		p.EmergencyCooldownMs = 0
	}
	if p.PriceRelThreshold == 0 {
		p.PriceRelThreshold = 0.15
	}
	return p
}

// Validate rejects parameters no control loop can run with. It is applied
// to the pre-default values: zero always means "use the default".
func (p Params) Validate() error {
	for name, v := range map[string]float64{
		"window_ms":                p.WindowMs,
		"tick_ms":                  p.TickMs,
		"rel_threshold":            p.RelThreshold,
		"cooldown_ms":              p.CooldownMs,
		"migration_setup_hours":    p.MigrationSetupHours,
		"migration_teardown_hours": p.MigrationTeardownHours,
		"amortization_hours":       p.AmortizationHours,
		"price_rel_threshold":      p.PriceRelThreshold,
	} {
		if v < 0 {
			return fmt.Errorf("controller: %s must be non-negative, got %g", name, v)
		}
	}
	if p.RelThreshold >= 1 {
		return fmt.Errorf("controller: rel_threshold %g out of (0,1)", p.RelThreshold)
	}
	if p.AdaptBudget < 0 {
		return fmt.Errorf("controller: adapt_budget must be non-negative, got %d", p.AdaptBudget)
	}
	return nil
}

// Config describes the controlled service.
type Config struct {
	// Spec is the pool under control.
	Spec serving.PoolSpec
	// Sim configures the evaluation backend used for (re)searches;
	// Sim.RateScale is the base load the controller starts provisioned
	// for (1 when zero). Evaluations generate their own streams — the
	// ingested arrival stream is never used for evaluation.
	Sim serving.SimOptions
	// Bounds fixes the per-type search bounds; discovered (24 probes)
	// when nil.
	Bounds []int
	// Search tunes every search the controller launches.
	Search core.Options
	// InitialBudget bounds the cold search that establishes the first
	// incumbent; 40 when zero. Ignored when Initial is set.
	InitialBudget int
	// Initial, when non-nil, supplies a completed search (e.g. an
	// Optimizer run) whose best configuration becomes the incumbent
	// without spending search evaluations (bounds discovery still probes
	// the pool when Bounds is nil). It must be a Found result.
	Initial *core.SearchResult
	// Params tunes the control loop.
	Params Params
	// Logger, when non-nil, mirrors every audit event as a structured log
	// line. Logging never influences decisions: the audit trail itself is
	// stamped with stream time only, so seeded replays stay byte-identical
	// whether or not a logger is attached.
	Logger *slog.Logger
	// AuditCapacity bounds the retained audit events; 256 when zero.
	AuditCapacity int
	// Chaos, when non-nil, is the capacity-event schedule the controller
	// lives through: events are ingested at each tick (replay-determinism:
	// the same schedule and stream reproduce the same decision history),
	// revocations and failures degrade the live pool, and the capacity
	// path responds — graceful drain replacement inside the warning
	// window, emergency re-search on hard failure, price-aware
	// re-optimization. Live drivers (the gateway) leave this nil and feed
	// ObserveCapacity directly.
	Chaos *chaos.Schedule
	// UseSpot prices the pool at live spot-market rates: every search,
	// migration charge, and the accrued-cost meter use each family's
	// catalog spot price times the current market factor (price events)
	// instead of the on-demand price.
	UseSpot bool
	// SLO, when non-nil, runs a burn-rate SLO engine inside the loop: a
	// deterministic QoS-attainment indicator sampled at every tick, alert
	// transitions on the audit trail, and (with SLO.Trigger) the "slo"
	// capacity trigger closing the loop on degradation that leaves pool
	// membership intact. Replays stay byte-identical with the engine on.
	SLO *SLOConfig
}

// State labels the controller's position in the control loop.
type State string

// The controller states.
const (
	// StateWarmup: the initial search has not completed yet, or the
	// estimator window has not filled once.
	StateWarmup State = "warmup"
	// StateSteady: the load estimate tracks the provisioned scale.
	StateSteady State = "steady"
	// StatePending: an excursion is being dwelled on.
	StatePending State = "pending"
	// StateAdapting: a shift is confirmed and the re-search is running.
	StateAdapting State = "adapting"
	// StateDone: the replayed stream is exhausted.
	StateDone State = "done"
)

// Reconfiguration is one confirmed load shift or capacity event and the
// decision it led to — the controller's flight record, applied or not.
type Reconfiguration struct {
	// AtMs is the stream time of the confirmation tick.
	AtMs float64
	// Trigger names the control path that fired: "" for a load shift (the
	// legacy path), "drain" for a spot-revocation warning, "emergency" for
	// a hard failure, "slo" for a burn-rate page alert, "price" for a
	// spot-market move.
	Trigger string
	// ObservedScale is the estimator's load scale at confirmation;
	// OldScale and NewScale are the provisioned scales before and after
	// (NewScale == ObservedScale: the controller re-plans for the load it
	// measured).
	ObservedScale float64
	OldScale      float64
	NewScale      float64
	// From is the incumbent configuration; To is the configuration chosen
	// by the re-search (equal to From when the incumbent was kept).
	From serving.Config
	To   serving.Config
	// FromCostPerHour and ToCostPerHour price the two pools;
	// MigrationCost is the one-off switch charge between them.
	FromCostPerHour float64
	ToCostPerHour   float64
	MigrationCost   float64
	// IncumbentMeetsQoS reports whether From still met QoS under the new
	// load (re-measured by the warm start).
	IncumbentMeetsQoS bool
	// Samples is the number of real evaluations the re-search spent.
	Samples int
	// Applied reports whether the pool switched to To; Reason explains
	// the decision either way.
	Applied bool
	Reason  string
}

// Status is a point-in-time snapshot of the control loop.
type Status struct {
	// State is the loop position; NowMs the stream time of the last
	// processed event.
	State State
	NowMs float64
	// Arrivals and Ticks count ingested queries and detector evaluations.
	Arrivals int
	Ticks    int
	// EstimatedScale is the current windowed load estimate relative to
	// the model's base rate; AppliedScale is the load the incumbent is
	// provisioned for.
	EstimatedScale float64
	AppliedScale   float64
	// PendingForMs is how long the current excursion has been dwelled on;
	// 0 unless State is "pending".
	PendingForMs float64
	// Incumbent is the configuration the controller decided on, with its
	// price and QoS verdict under the provisioned load.
	Incumbent            serving.Config
	IncumbentCostPerHour float64
	IncumbentMeetsQoS    bool
	// LiveConfig is the capacity that actually exists right now: the
	// incumbent minus instances revoked or failed and not yet replaced.
	// Degraded reports the two differ — the controller knows its plan is
	// stale and a capacity response is pending or cooling down.
	LiveConfig serving.Config
	Degraded   bool
	// CapacityEvents counts ingested chaos events; AccruedCost is the
	// integrated pool spend over stream time in dollars (live spot prices
	// when UseSpot), including applied migration charges.
	CapacityEvents int
	AccruedCost    float64
	// SearchSamples is the total number of real evaluations spent so far
	// (initial search plus every re-search).
	SearchSamples int
	// Reconfigurations is the decision history, oldest first.
	Reconfigurations []Reconfiguration
	// Events is the typed audit trail behind the history: shift
	// confirmations and keep-or-switch verdicts with their inputs, oldest
	// first. Timestamps are stream time, so replays reproduce it exactly.
	Events []obs.Event
}

// minTargetScale floors the load scale a reconfiguration re-plans for. An
// (almost) empty estimator window carries no usable signal, and
// serving.SimOptions treats RateScale 0 as "use the default" — so an
// unfloored zero target would silently re-search at full base load and then
// set AppliedScale to 0, permanently disarming the change detector.
const minTargetScale = 0.05

// Controller is the continuous pool manager. Create with New, drive with
// Run; Snapshot is safe to call concurrently with Run.
type Controller struct {
	cfg       Config
	baseScale float64
	basePerMs float64 // base arrivals per ms at scale 1
	migration MigrationModel

	mu    sync.Mutex
	est   *rateEstimator
	det   *changeDetector
	stat  Status
	trail *obs.Trail

	bounds        []int
	lastSteps     []core.Step
	incumbent     serving.Result
	hasIncumbent  bool
	searches      int // completed searches, derives re-search seeds
	cooldownUntil float64
	ran           bool

	// Capacity-event path state (guarded by mu). lost[i] is how many
	// incumbent instances of slot i are gone (revoked or failed) and not
	// yet replaced; market/lastMarket track per-family spot factors now
	// and as of the last reconfiguration decision.
	lost                  []int
	market                map[string]float64
	lastMarket            map[string]float64
	pending               triggerSet
	capacityCooldownUntil float64
	chaosIdx              int
	accrualLastMs         float64

	// SLO-engine state (guarded by mu). sloGood/sloTotal are the
	// cumulative indicator counters the engine samples each tick;
	// sloEvalSig/sloEvalRsat cache the attainment evaluation on its
	// (live config, ledger, scale) signature; slowdowns is the straggler
	// ledger keyed by family.
	sloEngine   *slo.Engine
	sloGood     float64
	sloTotal    float64
	sloEvalSig  string
	sloEvalRsat float64
	slowdowns   map[string]slowdownWindow
}

// New validates the service description and prepares the control loop. No
// evaluation runs until Run.
func New(cfg Config) (*Controller, error) {
	if cfg.Spec.Dim() == 0 {
		return nil, errors.New("controller: empty pool spec")
	}
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	if cfg.InitialBudget < 0 {
		return nil, errors.New("controller: initial budget must be non-negative")
	}
	if cfg.InitialBudget == 0 {
		cfg.InitialBudget = 40
	}
	if cfg.Initial != nil {
		if !cfg.Initial.Found {
			return nil, errors.New("controller: Initial search result must be Found")
		}
		if len(cfg.Initial.BestConfig) != cfg.Spec.Dim() {
			return nil, fmt.Errorf("controller: Initial best config has %d types for a %d-type pool",
				len(cfg.Initial.BestConfig), cfg.Spec.Dim())
		}
	}
	if cfg.Bounds != nil && len(cfg.Bounds) != cfg.Spec.Dim() {
		return nil, fmt.Errorf("controller: %d bounds for a %d-type pool", len(cfg.Bounds), cfg.Spec.Dim())
	}
	if cfg.Spec.Model.ArrivalRateQPS <= 0 {
		return nil, errors.New("controller: model profile needs a positive arrival rate")
	}
	if cfg.Chaos != nil {
		if err := cfg.Chaos.Validate(); err != nil {
			return nil, err
		}
		cfg.Chaos = cfg.Chaos.Clone()
	}
	cfg.Params = cfg.Params.withDefaults()
	baseScale := cfg.Sim.RateScale
	if baseScale == 0 {
		baseScale = 1
	}
	if baseScale < 0 {
		return nil, errors.New("controller: base rate scale must be positive")
	}
	c := &Controller{
		cfg:       cfg,
		baseScale: baseScale,
		basePerMs: cfg.Spec.Model.ArrivalRateQPS / 1000,
		migration: MigrationModel{
			SetupHours:    cfg.Params.MigrationSetupHours,
			TeardownHours: cfg.Params.MigrationTeardownHours,
		},
		est:        newRateEstimator(cfg.Params.WindowMs),
		det:        newChangeDetector(cfg.Params.RelThreshold, cfg.Params.DwellMs),
		lost:       make([]int, cfg.Spec.Dim()),
		market:     make(map[string]float64),
		lastMarket: make(map[string]float64),
		slowdowns:  make(map[string]slowdownWindow),
	}
	auditCap := cfg.AuditCapacity
	if auditCap == 0 {
		auditCap = 256
	}
	c.trail = obs.NewTrail(auditCap, cfg.Logger)
	c.stat = Status{State: StateWarmup, AppliedScale: baseScale}
	if err := c.initSLO(); err != nil {
		return nil, err
	}
	return c, nil
}

// Snapshot returns the current control-loop status. Safe for concurrent use
// with Run; the returned value is safe to retain (the history slice is
// copied, and recorded configurations are never mutated).
func (c *Controller) Snapshot() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.snapshotLocked()
}

func (c *Controller) snapshotLocked() Status {
	s := c.stat
	s.Incumbent = s.Incumbent.Clone()
	s.LiveConfig = s.LiveConfig.Clone()
	s.Reconfigurations = append([]Reconfiguration(nil), s.Reconfigurations...)
	s.Events = c.trail.Events()
	return s
}

// evaluatorForSpec builds a fresh caching evaluator over the given
// (possibly spot-repriced) spec at the given load scale, sharing every
// other evaluation option with the base configuration. A non-nil churn
// schedule (the compiled slowdown ledger) replaces the configured one, so
// searches measure candidate pools with active stragglers actually slow.
func (c *Controller) evaluatorForSpec(spec serving.PoolSpec, scale float64, churn *chaos.Schedule) *serving.CachingEvaluator {
	opts := c.cfg.Sim
	opts.RateScale = scale
	if churn != nil {
		opts.Churn = churn
	}
	return serving.NewCachingEvaluator(serving.NewSimEvaluator(spec, opts))
}

// evaluatorAt is evaluatorForSpec at the current market prices and ledger.
func (c *Controller) evaluatorAt(scale float64) *serving.CachingEvaluator {
	c.mu.Lock()
	spec := c.pricedSpecLocked()
	churn := c.slowdownChurnLocked()
	c.mu.Unlock()
	return c.evaluatorForSpec(spec, scale, churn)
}

// initialize establishes the incumbent: bounds discovery plus a cold search
// at the base load, or the caller-provided Initial result.
func (c *Controller) initialize(ctx context.Context) error {
	ev := c.evaluatorAt(c.baseScale)
	if c.bounds == nil {
		if c.cfg.Bounds != nil {
			c.bounds = append([]int(nil), c.cfg.Bounds...)
		} else {
			b, err := core.DiscoverBoundsContext(ctx, ev, 24)
			if err != nil {
				return fmt.Errorf("controller: bounds discovery: %w", err)
			}
			c.bounds = b
		}
	}
	var res core.SearchResult
	if c.cfg.Initial != nil {
		res = *c.cfg.Initial
	} else {
		res = core.NewSearcher(ev, c.bounds, c.cfg.Sim.Seed, c.cfg.Search).RunContext(ctx, c.cfg.InitialBudget)
		if err := ctx.Err(); err != nil {
			return err
		}
		if !res.Found {
			return errors.New("controller: initial search found no QoS-meeting configuration")
		}
	}
	c.searches++

	c.mu.Lock()
	defer c.mu.Unlock()
	c.lastSteps = res.Steps
	c.incumbent = res.BestResult
	c.hasIncumbent = true
	c.stat.Incumbent = res.BestConfig.Clone()
	c.stat.IncumbentCostPerHour = res.BestResult.CostPerHour
	c.stat.IncumbentMeetsQoS = res.BestResult.MeetsQoS
	c.stat.LiveConfig = res.BestConfig.Clone()
	if c.cfg.Initial == nil {
		c.stat.SearchSamples += res.Samples
	}
	c.trail.Record(0, "incumbent_established", "initial incumbent "+res.BestConfig.Key(),
		obs.F("config", res.BestConfig.Key()),
		obs.F("cost_per_hour", res.BestResult.CostPerHour),
		obs.F("meets_qos", res.BestResult.MeetsQoS),
		obs.F("strategy", res.Strategy),
		obs.F("samples", res.Samples),
	)
	return nil
}

// Run replays the stream through the control loop: every arrival feeds the
// load estimator, the change detector fires at each TickMs boundary, and
// confirmed shifts trigger warm-started re-searches. It returns the final
// status; on context cancellation the partial status accumulated so far is
// returned with the context's error. Run may be called once per Controller.
func (c *Controller) Run(ctx context.Context, stream *workload.Stream) (Status, error) {
	if err := c.claimRun(); err != nil {
		return c.Snapshot(), err
	}
	if stream == nil || len(stream.Queries) == 0 {
		return c.Snapshot(), errors.New("controller: empty stream")
	}
	i := 0
	return c.loop(ctx, func() (float64, bool, error) {
		if i == len(stream.Queries) {
			return 0, false, nil
		}
		i++
		return stream.Queries[i-1].ArrivalMs, true, nil
	}, nil)
}

// tick runs one detector evaluation at stream time nowMs and launches a
// re-search when a shift is confirmed. It returns the reconfiguration
// decision when one was made this tick (applied or not), so live drivers can
// act on it.
func (c *Controller) tick(ctx context.Context, nowMs float64) (*Reconfiguration, error) {
	c.mu.Lock()
	c.stat.Ticks++
	c.stat.NowMs = nowMs
	if c.cfg.Chaos != nil {
		c.ingestChaosLocked(nowMs)
	}
	c.expireSlowdownsLocked(nowMs)
	c.accrueLocked(nowMs)
	est := c.est.RatePerMs(nowMs) / c.basePerMs
	c.stat.EstimatedScale = est
	// The SLO engine samples before trigger arbitration so an alert firing
	// on this very tick is answered on this very tick.
	c.observeSLOLocked(nowMs)

	// Capacity events bypass the load detector's dwell hysteresis
	// entirely — a revoked instance is hard evidence, not Poisson noise.
	// Only the emergency cooldown gates them, so a storm is answered by
	// consolidated re-searches rather than one per casualty.
	if t, ok := c.pending.first(); ok && nowMs >= c.capacityCooldownUntil {
		trigger := t.String()
		c.pending = 0
		c.stat.State = StateAdapting
		c.stat.PendingForMs = 0
		c.mu.Unlock()
		c.trail.Record(nowMs, "capacity_shift", "capacity response: "+trigger,
			obs.F("trigger", trigger),
			obs.F("estimated_scale", est),
		)
		return c.reconfigureCapacity(ctx, nowMs, trigger, est)
	}

	// Hold detection until the estimator has seen one full window — the
	// early estimate is noisy — and through any post-shift cooldown. An
	// empty window (est == 0, e.g. a quiet gap longer than the window)
	// carries no signal either: hold steady rather than "detect" a
	// collapse to zero.
	if nowMs < c.cfg.Params.WindowMs || nowMs < c.cooldownUntil || est == 0 {
		c.stat.State = StateWarmup
		if nowMs >= c.cfg.Params.WindowMs {
			c.stat.State = StateSteady
		}
		c.det.Reset()
		c.stat.PendingForMs = 0
		c.mu.Unlock()
		return nil, nil
	}

	applied := c.stat.AppliedScale
	confirmed := c.det.Update(nowMs, applied, est)
	if since, ok := c.det.Pending(); ok && !confirmed {
		c.stat.State = StatePending
		c.stat.PendingForMs = nowMs - since
	} else if !confirmed {
		c.stat.State = StateSteady
		c.stat.PendingForMs = 0
	}
	c.mu.Unlock()

	if !confirmed {
		return nil, nil
	}
	c.trail.Record(nowMs, "shift_detected", "load shift confirmed",
		obs.F("observed_scale", est),
		obs.F("applied_scale", applied),
	)
	return c.reconfigure(ctx, nowMs, est)
}

// reconfigure handles one confirmed shift: a bounded warm-started re-search
// at the observed load, then the keep-or-switch decision with migration
// cost folded in. It always updates the provisioned scale — the load
// assessment changed even when the pool does not — and always appends to
// the history.
func (c *Controller) reconfigure(ctx context.Context, nowMs, target float64) (*Reconfiguration, error) {
	if target < minTargetScale {
		target = minTargetScale
	}
	c.mu.Lock()
	oldScale := c.stat.AppliedScale
	prevSteps := c.lastSteps
	incumbent := c.incumbent
	// The pool the decision starts from is the capacity that exists, not
	// the capacity once decided: a revoked instance the capacity path has
	// not yet replaced must not be priced, measured, or migrated-from as
	// if it were still serving.
	live := c.liveConfigLocked()
	degraded := live.Key() != incumbent.Config.Key()
	spec := c.pricedSpecLocked()
	churn := c.slowdownChurnLocked()
	seed := c.cfg.Sim.Seed + uint64(c.searches)
	c.stat.State = StateAdapting
	c.stat.PendingForMs = 0
	c.mu.Unlock()

	ev := c.evaluatorForSpec(spec, target, churn)
	s := core.NewAdaptedSearcher(ev, c.bounds, seed, c.churnSearchOptions(churn), prevSteps, incumbent)
	res := s.RunContext(ctx, c.cfg.Params.AdaptBudget)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// The warm start re-measured the incumbent under the new load as its
	// first step; the caching evaluator hands it back for free (when not
	// degraded — a degraded pool is measured as it actually is).
	incNow := ev.Evaluate(live)
	fromCost := incumbent.CostPerHour
	if degraded {
		fromCost = incNow.CostPerHour
	}

	rec := Reconfiguration{
		AtMs:              nowMs,
		ObservedScale:     target,
		OldScale:          oldScale,
		NewScale:          target,
		From:              live.Clone(),
		FromCostPerHour:   fromCost,
		IncumbentMeetsQoS: incNow.MeetsQoS,
		Samples:           res.Samples,
	}
	next := incNow // deployed result under the new load unless we switch
	switch {
	case !res.Found:
		rec.To = live.Clone()
		rec.ToCostPerHour = fromCost
		rec.Reason = "no QoS-meeting configuration found within budget; incumbent kept"
	case res.BestConfig.Key() == live.Key():
		rec.To = res.BestConfig.Clone()
		rec.ToCostPerHour = res.BestResult.CostPerHour
		rec.Reason = "incumbent remains optimal at the new load"
	default:
		mig := c.migration.Cost(spec, live, res.BestConfig)
		rec.To = res.BestConfig.Clone()
		rec.ToCostPerHour = res.BestResult.CostPerHour
		rec.MigrationCost = mig
		horizon := c.cfg.Params.AmortizationHours
		switch {
		case !incNow.MeetsQoS:
			rec.Applied = true
			rec.Reason = "incumbent violates QoS at the new load; switching to restore it"
		case res.BestResult.CostPerHour*horizon+mig < incNow.CostPerHour*horizon-1e-9:
			rec.Applied = true
			rec.Reason = fmt.Sprintf("cheaper after migration: $%.3f/hr + $%.3f once vs $%.3f/hr",
				res.BestResult.CostPerHour, mig, incNow.CostPerHour)
		default:
			rec.Reason = fmt.Sprintf("saving does not repay migration within %.2gh; incumbent kept", horizon)
		}
		if rec.Applied {
			next = res.BestResult
		}
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	c.accrueLocked(nowMs)
	if rec.Applied {
		c.stat.AccruedCost += rec.MigrationCost
	}
	c.searches++
	c.lastSteps = res.Steps
	c.incumbent = next
	// Whatever was decided, the decision replaces any missing capacity: the
	// chosen pool is provisioned fresh, so the degradation ledger clears.
	for i := range c.lost {
		c.lost[i] = 0
	}
	c.stat.AppliedScale = target
	c.stat.Incumbent = next.Config.Clone()
	c.stat.IncumbentCostPerHour = next.CostPerHour
	c.stat.IncumbentMeetsQoS = next.MeetsQoS
	c.stat.LiveConfig = next.Config.Clone()
	c.stat.Degraded = false
	c.stat.SearchSamples += res.Samples
	c.stat.Reconfigurations = append(c.stat.Reconfigurations, rec)
	c.stat.State = StateSteady
	c.stat.PendingForMs = 0
	c.det.Reset()
	c.cooldownUntil = nowMs + c.cfg.Params.CooldownMs
	c.syncMarketLocked()
	verdict := "keep"
	if rec.Applied {
		verdict = "switch"
	}
	c.trail.Record(nowMs, "reconfigure", verdict+": "+rec.Reason,
		obs.F("applied", rec.Applied),
		obs.F("observed_scale", rec.ObservedScale),
		obs.F("from", rec.From.Key()),
		obs.F("to", rec.To.Key()),
		obs.F("from_cost_per_hour", rec.FromCostPerHour),
		obs.F("to_cost_per_hour", rec.ToCostPerHour),
		obs.F("migration_cost", rec.MigrationCost),
		obs.F("samples", rec.Samples),
	)
	return &rec, nil
}
