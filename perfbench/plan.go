package main

import (
	"fmt"
	"math"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"ribbon/internal/core"
	"ribbon/internal/dispatch"
	"ribbon/internal/experiments"
	"ribbon/internal/fleet"
	"ribbon/internal/models"
	"ribbon/internal/serving"
	"ribbon/internal/stats"
)

const (
	planBudget     = 120 // the paper's per-model search budget (Sec. 5.3)
	planMaxPerType = 24  // bounds-discovery probe cap, as the controller and fleet use
	// planMinSearches puts ten searches beyond plan.search_ms.p90.
	planMinSearches = 100
	// planSeeds is how many input seeds a run derives from --seed, one per
	// pass in rotation: a search's cost and trajectory swing with its seed,
	// so one seed per run would make the run-to-run spread a seed lottery.
	planSeeds = 20
	// planBudgetShare sets the fleet budget below the five pools' summed
	// price, so the solver has to trade models off against each other.
	planBudgetShare = 0.9
)

type planModel struct {
	name string
	spec serving.PoolSpec
}

func planModels() []planModel {
	var out []planModel
	for _, name := range experiments.ModelNames() {
		spec := serving.MustNewPoolSpec(models.MustLookup(name), 0.99, experiments.PoolFor(name)...)
		out = append(out, planModel{name, spec})
	}
	return out
}

// timedEval wraps the simulator so every inner evaluation — committed,
// speculative or a bounds probe — becomes a serving.evaluate span under the
// search or bounds span running at the time.
type timedEval struct {
	inner  serving.Evaluator
	tr     *tracer
	parent atomic.Uint64
	trace  atomic.Uint64
}

func (e *timedEval) Evaluate(cfg serving.Config) serving.Result {
	start := e.tr.now()
	r := e.inner.Evaluate(cfg)
	e.tr.add("serving.evaluate", e.parent.Load(), e.trace.Load(), start, e.tr.now())
	return r
}

func (e *timedEval) Spec() serving.PoolSpec { return e.inner.Spec() }

// planPassOut is one planning pass.
type planPassOut struct {
	setup, pass   time.Duration
	cpu           time.Duration // process CPU over the pass
	searchMs      []float64
	poolUSD       float64
	samplesToBest int
	charged       int // committed samples over the five evaluators
	fingerprint   string
}

// planPass plans the five models once from fresh evaluators: bounds
// discovery and a BO search per model, then frontiers and one fleet solve.
// Building the evaluators (which generates their query streams) is the
// pass's set-up and is timed apart from the pass.
func planPass(ms []planModel, seed uint64, tr *tracer, probe *policyProbe, verify bool, r *result) (planPassOut, error) {
	var out planPassOut
	t0 := time.Now()
	evs := make([]*serving.CachingEvaluator, len(ms))
	timed := make([]*timedEval, len(ms))
	for i, m := range ms {
		opts := serving.SimOptions{Seed: seed}
		if tr.on() {
			opts.Dispatch = probe.spec()
		}
		var inner serving.Evaluator = serving.NewSimEvaluator(m.spec, opts)
		if tr.on() {
			timed[i] = &timedEval{inner: inner, tr: tr}
			inner = timed[i]
		}
		evs[i] = serving.NewCachingEvaluator(inner)
	}
	out.setup = time.Since(t0)

	t1, cpu1 := time.Now(), cpuTime()
	passID, passStart := tr.newID(), tr.now()
	results := make([]core.SearchResult, len(ms))
	bounds := make([][]int, len(ms))
	for i, m := range ms {
		trace := tr.newID()
		boundsID := tr.newID()
		if tr.on() {
			timed[i].trace.Store(trace)
			timed[i].parent.Store(boundsID)
		}
		start := tr.now()
		b, err := core.DiscoverBounds(evs[i], planMaxPerType)
		tr.addWithID("core.bounds", boundsID, passID, trace, start, tr.now())
		if err != nil {
			return out, fmt.Errorf("plan: %s bounds discovery: %w", m.name, err)
		}
		bounds[i] = b

		searchID := tr.newID()
		opts := core.Options{Parallelism: runtime.GOMAXPROCS(0)}
		start = tr.now()
		if tr.on() {
			timed[i].parent.Store(searchID)
			last := start
			opts.Progress = func(core.Step) {
				now := tr.now()
				tr.add("core.step", searchID, trace, last, now)
				last = now
			}
		}
		s0 := time.Now()
		results[i] = core.NewSearcher(evs[i], b, seed, opts).Run(planBudget)
		out.searchMs = append(out.searchMs, float64(time.Since(s0))/1e6)
		tr.addWithID("core.search", searchID, passID, trace, start, tr.now())
	}

	start := tr.now()
	frontiers := make([]fleet.ModelFrontier, len(ms))
	for i, m := range ms {
		frontiers[i] = fleet.ModelFrontier{
			Name:     m.name,
			Frontier: fleet.BuildFrontier(evs[i].History()),
			Target:   m.spec.QoSPercentile,
		}
	}
	tr.add("fleet.frontier", passID, 0, start, tr.now())
	budget := 0.0
	for _, res := range results {
		budget += res.BestResult.CostPerHour
	}
	budget *= planBudgetShare
	start = tr.now()
	plan, err := fleet.Solve(frontiers, budget)
	tr.add("fleet.solve", passID, 0, start, tr.now())
	out.pass, out.cpu = time.Since(t1), cpuTime()-cpu1
	tr.addWithID("plan.pass", passID, 0, 0, passStart, tr.now())
	if err != nil {
		return out, fmt.Errorf("plan: fleet solve: %w", err)
	}

	fp := ""
	for i, m := range ms {
		res := results[i]
		r.attempted++
		if !res.Found {
			r.failed++
			r.check(false, "plan: %s search found no QoS-meeting pool", m.name)
			continue
		}
		n, ok := res.SamplesToReachCost(res.BestResult.CostPerHour)
		r.check(ok, "plan: %s best cost never reached in its own trace", m.name)
		out.poolUSD += res.BestResult.CostPerHour
		out.samplesToBest += n
		out.charged += evs[i].Samples()
		if verify {
			fresh := serving.NewSimEvaluator(m.spec, serving.SimOptions{Seed: seed}).Evaluate(res.BestConfig)
			r.check(fresh.MeetsQoS, "plan: %s pool %v misses QoS on a fresh evaluator (Rsat %.4f)",
				m.name, res.BestConfig, fresh.Rsat)
		}
		fp += fmt.Sprintf("%s b=%v best=%v $%.17g n=%d s=%d|", m.name, bounds[i], res.BestConfig,
			res.BestResult.CostPerHour, res.Samples, n)
	}
	r.check(plan.Feasible, "plan: fleet plan infeasible at $%.4f/hr", budget)
	r.check(plan.TotalPerHour <= budget*(1+1e-12), "plan: fleet plan spends $%.6f/hr over its $%.6f/hr budget",
		plan.TotalPerHour, budget)
	for _, a := range plan.Allocations {
		fp += fmt.Sprintf("%s=%v@%.17g;", a.Name, a.Point.Config, a.ChargedPerHour)
	}
	out.fingerprint = fp + fmt.Sprintf("min=%.17g", plan.MinScore)
	return out, nil
}

func runPlan(cfg runConfig) (*result, error) {
	r := &result{primary: "plan.pass_s.p50", exact: []string{"plan.pool_usd_per_hr", "plan.samples_to_best"}}
	ms := planModels()
	probe := &policyProbe{kind: dispatch.KindFCFS, tr: cfg.tr}
	var passes []planPassOut
	var setupS, passS, cpuMs, searchMs []float64
	proc0 := readProc()
	t0 := time.Now()
	// Every input seed runs once, and at least one twice, so a pass's
	// results can be checked against the earlier pass on the same seed.
	for len(passes) <= planSeeds || !measureUntil(t0, cfg.seconds, cfg.tr.on() || len(searchMs) >= planMinSearches) {
		k := len(passes)
		seed := stats.DeriveSeed(cfg.seed, "plan", strconv.Itoa(k%planSeeds))
		p, err := planPass(ms, seed, cfg.tr, probe, k < planSeeds, r)
		if err != nil {
			return nil, err
		}
		if k >= planSeeds {
			want := passes[k-planSeeds].fingerprint
			r.check(p.fingerprint == want, "plan: pass %d differs from pass %d on the same seed:\n  %s\n  %s",
				k, k-planSeeds, want, p.fingerprint)
		}
		passes = append(passes, p)
		setupS = append(setupS, p.setup.Seconds())
		passS = append(passS, p.pass.Seconds())
		cpuMs = append(cpuMs, float64(p.cpu)/1e6)
		searchMs = append(searchMs, p.searchMs...)
	}
	proc1 := readProc()
	var poolUSD, samplesToBest float64
	for _, p := range passes[:planSeeds] {
		poolUSD += p.poolUSD / planSeeds
		samplesToBest += float64(p.samplesToBest) / planSeeds
	}
	r.e2e = []metric{
		{name: "setup_s", unit: "s", value: median(setupS), samples: len(setupS)},
		{name: "cpu_ms_per_op", unit: "ms", value: median(cpuMs), samples: len(cpuMs)},
		{name: "cost_usd", unit: "usd", value: poolUSD, samples: planSeeds},
		pct("plan.pass_s.p50", "s", passS, 0.5),
		pct("plan.search_ms.p90", "ms", searchMs, 0.9),
		{name: "plan.pool_usd_per_hr", unit: "usd/hr", value: poolUSD, samples: planSeeds},
		{name: "plan.samples_to_best", unit: "count", value: samplesToBest, samples: planSeeds},
	}
	if !cfg.tr.on() {
		return r, nil
	}

	spans := cfg.tr.snapshot()
	n := float64(len(passes))
	evals := byName(spans, "serving.evaluate")
	picks, sheds := probe.totals()
	charged := 0
	for _, p := range passes {
		charged += p.charged
	}
	l := map[string]float64{
		"serving.evaluate.calls":     float64(len(evals)) / n,
		"serving.evaluate.busy_ms":   totalMs(evals) / n,
		"serving.evaluate.us.p50":    1000 * median(durationsMs(evals)),
		"core.search.self_ms":        selfMs(byName(spans, "core.search"), evals) / n,
		"serving.cache.useful_ratio": float64(charged) / math.Max(1, float64(len(evals))),
		"core.bounds_ms":             totalMs(byName(spans, "core.bounds")) / n,
		"core.step_ms.p50":           median(durationsMs(byName(spans, "core.step"))),
		"dispatch.picks":             float64(picks) / n,
		"dispatch.shed_ratio":        float64(sheds) / math.Max(1, float64(picks)),
		"fleet.frontier_ms":          totalMs(byName(spans, "fleet.frontier")) / n,
		"fleet.solve_ms":             totalMs(byName(spans, "fleet.solve")) / n,
		"proc.gc_cpu_fraction":       proc1.gcFraction(proc0),
	}
	r.layers = layerMetrics(l)
	r.spans = spans
	return r, nil
}
