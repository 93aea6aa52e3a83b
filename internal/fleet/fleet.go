package fleet

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"sort"
	"sync"

	"ribbon/internal/core"
	"ribbon/internal/obs"
	"ribbon/internal/serving"
)

// ModelConfig describes one member of the fleet.
type ModelConfig struct {
	// Name identifies the model fleet-wide; it must be unique and is the
	// deterministic tie-breaker of every solver decision.
	Name string
	// Spec is the model's searchable pool; Spec.QoSPercentile is the
	// model's own satisfaction target.
	Spec serving.PoolSpec
	// Sim configures the model's evaluation backend (stream length, seed,
	// load scale, dispatch, mix).
	Sim serving.SimOptions
	// Weight is the criticality weight in the shared-budget objective;
	// 1 when zero.
	Weight float64
	// FloorPerHour reserves a minimum budget share for the model.
	FloorPerHour float64
	// Bounds fixes the per-type search bounds; discovered when nil.
	Bounds []int
	// SearchBudget overrides the fleet-wide per-model search budget.
	SearchBudget int
}

// Config describes a fleet optimization problem.
type Config struct {
	// Models is the catalog, at least one entry.
	Models []ModelConfig
	// BudgetPerHour is the shared $/hour budget split across the fleet.
	BudgetPerHour float64
	// SearchBudget bounds each model's frontier-extraction search; 40
	// when zero.
	SearchBudget int
	// RefineBudget bounds each warm-started refinement re-search; 12 when
	// zero.
	RefineBudget int
	// RefineModels caps how many most-constrained models are refined;
	// 2 when zero, negative disables refinement.
	RefineModels int
	// Search tunes every search the fleet launches (pruning, ablations,
	// speculative Parallelism). The per-step Progress callback, when set,
	// is invoked from concurrent model searches and must be safe for
	// concurrent use.
	Search core.Options
	// Logger, when set, mirrors every audit event as a structured log line.
	// Logging never influences decisions: the pipeline is byte-identical
	// with or without it.
	Logger *slog.Logger
	// AuditCapacity bounds the decision audit trail; 128 when zero. Events
	// are recorded only at deterministic pipeline barriers (never from the
	// concurrent per-model searches), so the trail is reproducible run to
	// run.
	AuditCapacity int
}

func (cfg Config) withDefaults() Config {
	if cfg.SearchBudget == 0 {
		cfg.SearchBudget = 40
	}
	if cfg.RefineBudget == 0 {
		cfg.RefineBudget = 12
	}
	if cfg.RefineModels == 0 {
		cfg.RefineModels = 2
	}
	return cfg
}

// State labels the fleet optimizer's position in its pipeline.
type State string

// The fleet states, in pipeline order.
const (
	StateIdle       State = "idle"
	StateSearching  State = "searching"
	StateAllocating State = "allocating"
	StateRefining   State = "refining"
	StateDone       State = "done"
)

// Phase labels one model's position within the pipeline.
type Phase string

// The per-model phases.
const (
	PhasePending   Phase = "pending"
	PhaseSearching Phase = "searching"
	PhaseRefining  Phase = "refining"
	PhaseDone      Phase = "done"
)

// ModelStatus is the live view of one model's progress.
type ModelStatus struct {
	// Name is the model; Phase its pipeline position.
	Name  string
	Phase Phase
	// Samples counts the model's real evaluations so far.
	Samples int
	// FrontierSize is the extracted frontier's point count (0 while
	// searching).
	FrontierSize int
}

// Status is a point-in-time snapshot of a fleet optimization. Safe to
// retain: slices are copied and the plan is immutable once published.
type Status struct {
	// State is the pipeline position.
	State State
	// Samples is the fleet-wide count of real evaluations so far.
	Samples int
	// BudgetPerHour echoes the shared budget.
	BudgetPerHour float64
	// Models reports per-model progress, in catalog order.
	Models []ModelStatus
	// Plan is the current budget split: the first allocation once solved,
	// replaced by the refined plan when refinement runs. Nil until solved.
	Plan *Plan
	// Refined names the models the refinement pass re-searched.
	Refined []string
	// Events is the decision audit trail, oldest first.
	Events []obs.Event
}

// ModelReport is one model's share of a completed fleet optimization.
type ModelReport struct {
	// Name is the model.
	Name string
	// Search summarizes the frontier-extraction search; Refine the
	// warm-started refinement re-search when one ran.
	Search core.SearchResult
	Refine *core.SearchResult
	// Frontier is the model's final cost→Rsat menu (refinement points
	// included).
	Frontier Frontier
	// Bounds are the per-type search bounds used.
	Bounds []int
	// Samples, Violations, and ExplorationCost are the model's exploration
	// accounting (distinct configurations deployed, QoS-violating ones,
	// summed $/hour).
	Samples         int
	Violations      int
	ExplorationCost float64
}

// Result summarizes a completed fleet optimization.
type Result struct {
	// Plan is the final budget split.
	Plan Plan
	// Models holds the per-model reports, in catalog order.
	Models []ModelReport
	// Refined names the re-searched models, in refinement order.
	Refined []string
	// Samples is the fleet-wide total of distinct configurations deployed.
	Samples int
	// BudgetPerHour echoes the shared budget.
	BudgetPerHour float64
}

// Fleet is a multi-model shared-budget optimizer. Create with New, drive
// with Run (once), observe with Snapshot from any goroutine.
type Fleet struct {
	cfg   Config
	trail *obs.Trail

	mu   sync.Mutex
	stat Status
	ran  bool
}

// New validates the fleet description. No evaluation runs until Run.
func New(cfg Config) (*Fleet, error) {
	if len(cfg.Models) == 0 {
		return nil, errors.New("fleet: at least one model is required")
	}
	if cfg.BudgetPerHour <= 0 || math.IsNaN(cfg.BudgetPerHour) || math.IsInf(cfg.BudgetPerHour, 0) {
		return nil, fmt.Errorf("fleet: budget must be positive and finite, got %g", cfg.BudgetPerHour)
	}
	if cfg.SearchBudget < 0 || cfg.RefineBudget < 0 {
		return nil, errors.New("fleet: search budgets must be non-negative")
	}
	seen := map[string]bool{}
	floors := 0.0
	for i, m := range cfg.Models {
		if m.Name == "" {
			return nil, fmt.Errorf("fleet: model %d needs a name", i)
		}
		if seen[m.Name] {
			return nil, fmt.Errorf("fleet: duplicate model name %q", m.Name)
		}
		seen[m.Name] = true
		if m.Spec.Dim() == 0 {
			return nil, fmt.Errorf("fleet: model %q has an empty pool spec", m.Name)
		}
		if m.Weight < 0 || math.IsNaN(m.Weight) || math.IsInf(m.Weight, 0) {
			return nil, fmt.Errorf("fleet: model %q weight must be finite and non-negative, got %g", m.Name, m.Weight)
		}
		if m.FloorPerHour < 0 || math.IsNaN(m.FloorPerHour) || math.IsInf(m.FloorPerHour, 0) {
			return nil, fmt.Errorf("fleet: model %q floor must be finite and non-negative, got %g", m.Name, m.FloorPerHour)
		}
		if m.Bounds != nil && len(m.Bounds) != m.Spec.Dim() {
			return nil, fmt.Errorf("fleet: model %q has %d bounds for a %d-type pool",
				m.Name, len(m.Bounds), m.Spec.Dim())
		}
		if m.SearchBudget < 0 {
			return nil, fmt.Errorf("fleet: model %q search budget must be non-negative", m.Name)
		}
		floors += m.FloorPerHour
	}
	if floors > cfg.BudgetPerHour+costEps {
		return nil, fmt.Errorf("fleet: budget floors sum to $%.3f/hr, exceeding the $%.3f/hr budget",
			floors, cfg.BudgetPerHour)
	}
	cfg = cfg.withDefaults()
	auditCap := cfg.AuditCapacity
	if auditCap == 0 {
		auditCap = 128
	}
	f := &Fleet{cfg: cfg, trail: obs.NewTrail(auditCap, cfg.Logger)}
	f.stat = Status{State: StateIdle, BudgetPerHour: cfg.BudgetPerHour,
		Models: make([]ModelStatus, len(cfg.Models))}
	for i, m := range cfg.Models {
		f.stat.Models[i] = ModelStatus{Name: m.Name, Phase: PhasePending}
	}
	return f, nil
}

// Snapshot returns the current pipeline status. Safe for concurrent use
// with Run.
func (f *Fleet) Snapshot() Status {
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.stat
	s.Models = append([]ModelStatus(nil), f.stat.Models...)
	s.Refined = append([]string(nil), f.stat.Refined...)
	s.Events = f.trail.Events()
	return s
}

// modelRun is the per-model working state threaded through the pipeline.
type modelRun struct {
	cfg      ModelConfig
	eval     *serving.CachingEvaluator
	bounds   []int
	search   core.SearchResult
	refine   *core.SearchResult
	frontier Frontier
}

// setPhase updates one model's live phase (and optionally frontier size).
func (f *Fleet) setPhase(i int, ph Phase, frontierSize int) {
	f.mu.Lock()
	f.stat.Models[i].Phase = ph
	if frontierSize > 0 {
		f.stat.Models[i].FrontierSize = frontierSize
	}
	f.mu.Unlock()
}

// options returns the model's search options with the fleet's live
// per-model sample counter spliced into the Progress chain.
func (f *Fleet) options(i int) core.Options {
	opts := f.cfg.Search
	user := opts.Progress
	opts.Progress = func(st core.Step) {
		if !st.Estimated {
			f.mu.Lock()
			f.stat.Models[i].Samples++
			f.stat.Samples++
			f.mu.Unlock()
		}
		if user != nil {
			user(st)
		}
	}
	return opts
}

// Run executes the pipeline: parallel per-model frontier extraction, the
// deterministic budget allocation, and the bounded refinement pass. It
// returns the completed result; on context cancellation the error is
// returned with a zero Result and Snapshot reports how far the pipeline
// got. Run may be called once per Fleet.
func (f *Fleet) Run(ctx context.Context) (Result, error) {
	f.mu.Lock()
	if f.ran {
		f.mu.Unlock()
		return Result{}, errors.New("fleet: Run already called")
	}
	f.ran = true
	f.stat.State = StateSearching
	f.mu.Unlock()

	// Stage 1: frontier extraction, one goroutine per model. Each model's
	// search is fully independent (own evaluator, own seeds), so the
	// results are deterministic regardless of goroutine scheduling.
	runs := make([]*modelRun, len(f.cfg.Models))
	errs := make([]error, len(f.cfg.Models))
	var wg sync.WaitGroup
	for i, m := range f.cfg.Models {
		runs[i] = &modelRun{cfg: m}
		wg.Add(1)
		go func(i int, r *modelRun) {
			defer wg.Done()
			errs[i] = f.extract(ctx, i, r)
		}(i, runs[i])
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return Result{}, err
		}
	}
	// Audit events are recorded at this barrier, in catalog order, rather
	// than from the concurrent searches — the trail stays deterministic.
	for _, r := range runs {
		f.trail.Record(0, "frontier_extracted", "model "+r.cfg.Name+" frontier extracted",
			obs.F("model", r.cfg.Name),
			obs.F("frontier_size", len(r.frontier)),
			obs.F("samples", r.eval.Samples()),
		)
	}

	// Stage 2: the deterministic budget split.
	f.mu.Lock()
	f.stat.State = StateAllocating
	f.mu.Unlock()
	plan, err := f.solve(runs)
	if err != nil {
		return Result{}, err
	}
	f.publish(plan, nil)
	f.recordPlan("plan_solved", plan)

	// Stage 3: bounded joint refinement of the most-constrained models,
	// then a re-solve over the grown frontiers. Frontiers only gain
	// points, so the re-solved plan never guarantees less than the first.
	refined := f.pickRefinements(runs, plan)
	if len(refined) > 0 {
		f.mu.Lock()
		f.stat.State = StateRefining
		f.mu.Unlock()
		for _, i := range refined {
			if err := f.refine(ctx, i, runs[i], plan); err != nil {
				return Result{}, err
			}
			f.trail.Record(0, "model_refined", "model "+runs[i].cfg.Name+" re-searched",
				obs.F("model", runs[i].cfg.Name),
				obs.F("frontier_size", len(runs[i].frontier)),
			)
		}
		plan, err = f.solve(runs)
		if err != nil {
			return Result{}, err
		}
		f.recordPlan("plan_resolved", plan)
	}

	names := make([]string, len(refined))
	for j, i := range refined {
		names[j] = runs[i].cfg.Name
	}
	f.publish(plan, names)

	res := Result{
		Plan:          plan,
		Models:        make([]ModelReport, len(runs)),
		Refined:       names,
		BudgetPerHour: f.cfg.BudgetPerHour,
	}
	for i, r := range runs {
		samples, violations, cost := r.eval.Samples(), r.eval.Violations(), r.eval.ExplorationCost()
		res.Models[i] = ModelReport{
			Name:            r.cfg.Name,
			Search:          r.search,
			Refine:          r.refine,
			Frontier:        r.frontier,
			Bounds:          append([]int(nil), r.bounds...),
			Samples:         samples,
			Violations:      violations,
			ExplorationCost: cost,
		}
		res.Samples += samples
	}

	// The live per-step counters over-approximate charged samples (a
	// refinement's first step re-measures a cached configuration); settle
	// the status on the exact accounting.
	f.mu.Lock()
	f.stat.State = StateDone
	f.stat.Samples = res.Samples
	for i, m := range res.Models {
		f.stat.Models[i].Samples = m.Samples
		f.stat.Models[i].Phase = PhaseDone
	}
	f.mu.Unlock()
	return res, nil
}

// extract runs one model's bounds discovery plus frontier search.
func (f *Fleet) extract(ctx context.Context, i int, r *modelRun) error {
	f.setPhase(i, PhaseSearching, 0)
	r.eval = serving.NewCachingEvaluator(serving.NewSimEvaluator(r.cfg.Spec, r.cfg.Sim))
	if r.cfg.Bounds != nil {
		r.bounds = append([]int(nil), r.cfg.Bounds...)
	} else {
		// Discovery probes run on the model's own evaluator, so the
		// homogeneous columns it deploys join the frontier for free.
		b, err := core.DiscoverBoundsContext(ctx, r.eval, 24)
		if err != nil {
			return fmt.Errorf("fleet: model %q bounds discovery: %w", r.cfg.Name, err)
		}
		r.bounds = b
	}
	budget := r.cfg.SearchBudget
	if budget == 0 {
		budget = f.cfg.SearchBudget
	}
	s := core.NewSearcher(r.eval, r.bounds, r.cfg.Sim.Seed, f.options(i))
	r.search = s.RunContext(ctx, budget)
	if err := ctx.Err(); err != nil {
		return err
	}
	r.frontier = BuildFrontier(r.eval.History())
	if len(r.frontier) == 0 {
		return fmt.Errorf("fleet: model %q produced no evaluations", r.cfg.Name)
	}
	f.setPhase(i, PhaseDone, len(r.frontier))
	return nil
}

// solve maps the runs onto the solver input and splits the budget.
func (f *Fleet) solve(runs []*modelRun) (Plan, error) {
	ms := make([]ModelFrontier, len(runs))
	for i, r := range runs {
		ms[i] = ModelFrontier{
			Name:         r.cfg.Name,
			Frontier:     r.frontier,
			Weight:       r.cfg.Weight,
			Target:       r.cfg.Spec.QoSPercentile,
			FloorPerHour: r.cfg.FloorPerHour,
		}
	}
	return Solve(ms, f.cfg.BudgetPerHour)
}

// recordPlan audits one solver outcome. AtMs is always 0: the fleet pipeline
// has no stream clock, and event sequence numbers carry the ordering.
func (f *Fleet) recordPlan(kind obs.EventKind, plan Plan) {
	f.trail.Record(0, kind, fmt.Sprintf("budget split: $%.3f/hr of $%.3f/hr", plan.TotalPerHour, plan.BudgetPerHour),
		obs.F("total_per_hour", plan.TotalPerHour),
		obs.F("budget_per_hour", plan.BudgetPerHour),
		obs.F("feasible", plan.Feasible),
		obs.F("min_score", plan.MinScore),
		obs.F("binding", plan.Binding),
		obs.F("all_meet_qos", plan.AllMeetQoS),
	)
}

// publish installs a plan (and the refined-model names) into the status.
func (f *Fleet) publish(plan Plan, refined []string) {
	f.mu.Lock()
	p := plan
	f.stat.Plan = &p
	if refined != nil {
		f.stat.Refined = refined
	}
	f.mu.Unlock()
}

// pickRefinements selects up to RefineModels models whose allocation still
// violates its own QoS target, most-constrained (lowest score) first, ties
// by name. Models already meeting QoS are left alone — refinement chases
// the binding constraint, not marginal savings.
func (f *Fleet) pickRefinements(runs []*modelRun, plan Plan) []int {
	limit := f.cfg.RefineModels
	if limit <= 0 || f.cfg.RefineBudget <= 0 {
		return nil
	}
	type cand struct {
		idx   int
		score float64
	}
	var cands []cand
	for i, r := range runs {
		a, ok := plan.Allocation(r.cfg.Name)
		if ok && !a.Point.MeetsQoS {
			cands = append(cands, cand{idx: i, score: a.Score})
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].score != cands[b].score {
			return cands[a].score < cands[b].score
		}
		return runs[cands[a].idx].cfg.Name < runs[cands[b].idx].cfg.Name
	})
	if len(cands) > limit {
		cands = cands[:limit]
	}
	out := make([]int, len(cands))
	for j, c := range cands {
		out[j] = c.idx
	}
	return out
}

// refine re-searches one model with a warm start seeded from its first
// trace: the allocated (violating) point plays the role of the previous
// optimum, so the whole stale record below it re-enters the new search as
// pseudo-observations and the budget is spent on genuinely new
// configurations around the binding constraint.
func (f *Fleet) refine(ctx context.Context, i int, r *modelRun, plan Plan) error {
	f.setPhase(i, PhaseRefining, 0)
	a, _ := plan.Allocation(r.cfg.Name)
	prev, ok := r.eval.Peek(a.Point.Config)
	if !ok { // unreachable: the point came from this evaluator's history
		return fmt.Errorf("fleet: model %q allocation %v missing from cache", r.cfg.Name, a.Point.Config)
	}
	s := core.NewAdaptedSearcher(r.eval, r.bounds, r.cfg.Sim.Seed+1, f.options(i), r.search.Steps, prev)
	res := s.RunContext(ctx, f.cfg.RefineBudget)
	if err := ctx.Err(); err != nil {
		return err
	}
	r.refine = &res
	r.frontier = BuildFrontier(r.eval.History())
	f.setPhase(i, PhaseDone, len(r.frontier))
	return nil
}
