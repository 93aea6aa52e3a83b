package main

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"ribbon/internal/controller"
	"ribbon/internal/core"
	"ribbon/internal/dispatch"
	"ribbon/internal/experiments"
	"ribbon/internal/models"
	"ribbon/internal/serving"
	"ribbon/internal/stats"
	"ribbon/internal/workload"
)

const (
	adaptModel = "CANDLE"
	// adaptQueries is the evaluation stream length; every evaluation routes
	// exactly this many arrivals, which is how the traced run finds the
	// evaluation boundaries inside the controller.
	adaptQueries = 4000
	// adaptCycles square-wave periods per repetition, each a 1.0x phase and
	// a 0.5x phase of adaptPhaseMs stream time: long enough for the window
	// to fill and the dwell to confirm the shift before the next one.
	adaptCycles  = 10
	adaptPhaseMs = 4000
	// adaptSeeds input seeds are derived from --seed and run in rotation,
	// each at least once and one twice, so repetitions on one seed can be
	// compared.
	adaptSeeds = 16
	// adaptMinDecisions puts ten decisions beyond adapt.react_ms.p90.
	adaptMinDecisions = 100
)

// adaptParams are the control-loop inputs the benchmark sets: a short
// window, tick and dwell, so one square-wave period holds two confirmed
// shifts.
var adaptParams = controller.Params{
	WindowMs:     2000,
	TickMs:       200,
	RelThreshold: 0.3,
	DwellMs:      1000,
	AdaptBudget:  16,
}

// adaptRep is one controller run over the square wave.
type adaptRep struct {
	setup       time.Duration
	cpu         time.Duration // process CPU after set-up
	reactMs     []float64
	status      controller.Status
	fingerprint string
	// traced
	windows  []interval // trigger send .. decision callback
	sends    []int64    // send start of every arrival
	steps    []progressMark
	evals    []*policyRun
	decision []int // arrival index that triggered each decision
}

type progressMark struct {
	at        int64
	estimated bool
}

// squareWave generates the load: adaptCycles periods of 1.0x then 0.5x the
// model's base rate.
func squareWave(m models.Profile, seed uint64) []float64 {
	var phases []workload.Phase
	for i := 0; i < adaptCycles; i++ {
		for _, scale := range []float64{1.0, 0.5} {
			n := int(m.ArrivalRateQPS * scale * adaptPhaseMs / 1000)
			phases = append(phases, workload.Phase{Queries: n, RateScale: scale})
		}
	}
	s := workload.GenerateSchedule(m, seed, workload.HeavyTailLogNormalBatch, phases)
	ts := make([]float64, len(s.Queries))
	for i, q := range s.Queries {
		ts[i] = q.ArrivalMs
	}
	return ts
}

func adaptConfig(seed uint64) controller.Config {
	return controller.Config{
		Spec: serving.MustNewPoolSpec(models.MustLookup(adaptModel), 0.99, experiments.PoolFor(adaptModel)...),
		Sim: serving.SimOptions{
			Seed:     seed,
			Queries:  adaptQueries,
			Dispatch: dispatch.Spec{Kind: dispatch.KindCriticality},
			Mix:      inferMix,
		},
		Params: adaptParams,
	}
}

// runAdaptRep builds a controller and feeds it the arrivals on an unbuffered
// channel, timing each decision from the send of the arrival that triggered
// it to the callback.
func runAdaptRep(seed uint64, arrivals []float64, tr *tracer) (*adaptRep, error) {
	rep := &adaptRep{sends: make([]int64, len(arrivals))}
	cfg := adaptConfig(seed)
	probe := &policyProbe{kind: cfg.Sim.Dispatch.Kind, tr: tr, queries: adaptQueries}
	if tr.on() {
		cfg.Sim.Dispatch = probe.spec()
		cfg.Search.Progress = func(s core.Step) {
			rep.steps = append(rep.steps, progressMark{tr.now(), s.Estimated})
		}
	}
	// Feed and decision times share the tracer's clock when traced, so
	// they line up with the evaluation and step times.
	clock := time.Now()
	if tr.on() {
		clock = tr.t0
	}
	now := func() int64 { return int64(time.Since(clock)) }
	t0 := time.Now()
	c, err := controller.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("adapt: controller: %w", err)
	}

	ch := make(chan float64)
	fed := make(chan struct{})
	var setupDone time.Time
	var setupCPU time.Duration
	var closed atomic.Bool
	go func() {
		defer close(fed)
		for i, ts := range arrivals {
			rep.sends[i] = now()
			ch <- ts
			if i == 0 {
				// Received: initialization has finished.
				setupDone, setupCPU = time.Now(), cpuTime()
			}
		}
		closed.Store(true)
		close(ch)
	}()
	var recs []controller.Reconfiguration
	st, err := c.RunLive(context.Background(), ch, func(rec controller.Reconfiguration) {
		end := now()
		recs = append(recs, rec)
		// The tick at AtMs fires on the first arrival at or after it.
		i := sort.SearchFloat64s(arrivals, rec.AtMs)
		if i >= len(arrivals) || closed.Load() {
			return // the closing tick after the feed ended
		}
		rep.reactMs = append(rep.reactMs, float64(end-rep.sends[i])/1e6)
		rep.windows = append(rep.windows, interval{rep.sends[i], end})
		rep.decision = append(rep.decision, i)
	})
	for range ch {
		// RunLive stopped early: let the feeder finish.
	}
	<-fed
	if err != nil {
		return nil, fmt.Errorf("adapt: RunLive: %w", err)
	}
	rep.setup, rep.cpu = setupDone.Sub(t0), cpuTime()-setupCPU
	rep.status = st
	rep.fingerprint = fmt.Sprintf("%+v accrued=%.17g samples=%d", recs, st.AccruedCost, st.SearchSamples)
	rep.evals = probe.runs
	return rep, nil
}

func runAdapt(cfg runConfig) (*result, error) {
	r := &result{primary: "adapt.react_ms.p50", exact: []string{"adapt.accrued_usd", "adapt.samples"}}
	m := models.MustLookup(adaptModel)
	var reps []*adaptRep
	var setupS, reactMs []float64
	waves := make(map[uint64][]float64)
	proc0 := readProc()
	t0 := time.Now()
	for len(reps) <= adaptSeeds || !measureUntil(t0, cfg.seconds, cfg.tr.on() || len(reactMs) >= adaptMinDecisions) {
		k := len(reps)
		seed := stats.DeriveSeed(cfg.seed, "adapt", strconv.Itoa(k%adaptSeeds))
		if waves[seed] == nil {
			waves[seed] = squareWave(m, seed)
		}
		rep, err := runAdaptRep(seed, waves[seed], cfg.tr)
		if err != nil {
			return nil, err
		}
		decisions := rep.status.Reconfigurations
		r.attempted += len(decisions)
		r.check(len(decisions) > 0, "adapt: repetition %d made no decision over the square wave", k)
		if k >= adaptSeeds {
			want := reps[k-adaptSeeds].fingerprint
			r.check(rep.fingerprint == want, "adapt: repetition %d's decisions differ from repetition %d's on the same seed",
				k, k-adaptSeeds)
		} else {
			// Every applied pool must meet QoS at the load it was chosen for.
			for _, d := range decisions {
				if !d.Applied {
					continue
				}
				opts := adaptConfig(seed).Sim
				opts.RateScale = d.NewScale
				res := serving.NewSimEvaluator(adaptConfig(seed).Spec, opts).Evaluate(d.To)
				if !res.MeetsQoS {
					r.failed++
					r.check(false, "adapt: applied pool %v misses QoS at %.3fx load (Rsat %.4f)", d.To, d.NewScale, res.Rsat)
				}
			}
		}
		for _, e := range rep.evals {
			r.check(e.picks.Load() == adaptQueries, "adapt: an evaluation routed %d arrivals, not %d",
				e.picks.Load(), adaptQueries)
		}
		reps = append(reps, rep)
		setupS = append(setupS, rep.setup.Seconds())
		reactMs = append(reactMs, rep.reactMs...)
	}

	var cpu time.Duration
	for _, rep := range reps {
		cpu += rep.cpu
	}
	var accrued, samples float64
	for _, rep := range reps[:adaptSeeds] {
		accrued += rep.status.AccruedCost / adaptSeeds
		samples += float64(rep.status.SearchSamples) / adaptSeeds
	}
	r.e2e = []metric{
		{name: "setup_s", unit: "s", value: median(setupS), samples: len(setupS)},
		{name: "cpu_ms_per_op", unit: "ms", value: float64(cpu) / 1e6 / float64(len(reactMs)), samples: len(reactMs)},
		{name: "cost_usd", unit: "usd", value: accrued, samples: adaptSeeds},
		pct("adapt.react_ms.p50", "ms", reactMs, 0.5),
		pct("adapt.react_ms.p90", "ms", reactMs, 0.9),
		{name: "adapt.accrued_usd", unit: "usd", value: accrued, samples: adaptSeeds},
		{name: "adapt.samples", unit: "count", value: samples, samples: adaptSeeds},
	}
	if !cfg.tr.on() {
		return r, nil
	}
	r.layers, r.spans = adaptLayers(cfg.tr, reps, readProc().gcFraction(proc0))
	return r, nil
}

// adaptLayers attributes the traced repetitions' evaluations, search steps
// and feed sends to decisions, and reports them per decision.
func adaptLayers(tr *tracer, reps []*adaptRep, gcFrac float64) ([]metric, []span) {
	var evalMs, stepMs []float64
	var decisions, applied, evals, realSteps, picks, sheds, charged int
	var busyMs, selfNs float64
	var ingestNs, ingestN float64
	for _, rep := range reps {
		for _, rec := range rep.status.Reconfigurations {
			if rec.Applied {
				applied++
			}
		}
		decisions += len(rep.windows)
		charged += sumSamples(rep.status.Reconfigurations, len(rep.windows))
		for _, win := range rep.windows {
			id := tr.newID()
			tr.addWithID("controller.decision", id, 0, id, win.start, win.end)
			var kids []interval
			for _, e := range rep.evals {
				end := e.end.Load()
				if e.start >= win.start && end <= win.end && end > 0 {
					kids = append(kids, interval{e.start, end})
					tr.add("serving.evaluate", id, id, e.start, end)
					evalMs = append(evalMs, float64(end-e.start)/1e6)
					busyMs += float64(end-e.start) / 1e6
					picks += int(e.picks.Load())
					sheds += int(e.sheds.Load())
					evals++
				}
			}
			selfNs += float64(win.end - win.start - unionLen(kids, win.start, win.end))
			last := win.start
			for _, s := range rep.steps {
				if s.at < win.start || s.at > win.end {
					continue
				}
				if !s.estimated {
					stepMs = append(stepMs, float64(s.at-last)/1e6)
					tr.add("core.step", id, id, last, s.at)
					realSteps++
				}
				last = s.at
			}
		}
		// Feed cost: the gaps between consecutive sends that no decision
		// ran inside.
		trig := make(map[int]bool, len(rep.decision))
		for _, i := range rep.decision {
			trig[i] = true
		}
		for i := 0; i+1 < len(rep.sends); i++ {
			if !trig[i] {
				ingestNs += float64(rep.sends[i+1] - rep.sends[i])
				ingestN++
			}
		}
	}
	d := float64(max(decisions, 1))
	shedRatio := 0.0
	if picks > 0 {
		shedRatio = float64(sheds) / float64(picks)
	}
	useful := 0.0
	if evals > 0 {
		useful = float64(charged) / float64(evals)
	}
	return layerMetrics(map[string]float64{
		"serving.evaluate.calls":           float64(evals) / d,
		"serving.evaluate.busy_ms":         busyMs / d,
		"serving.evaluate.us.p50":          1000 * median(evalMs),
		"core.search.self_ms":              selfNs / 1e6 / d,
		"serving.cache.useful_ratio":       useful,
		"core.adapt.step_ms.p50":           median(stepMs),
		"core.adapt.steps":                 float64(realSteps) / d,
		"dispatch.picks":                   float64(picks) / d,
		"dispatch.shed_ratio":              shedRatio,
		"controller.ingest_ns_per_arrival": ingestNs / max(ingestN, 1),
		"controller.decisions":             float64(decisions) / float64(len(reps)),
		"controller.applied":               float64(applied) / float64(len(reps)),
		"proc.gc_cpu_fraction":             gcFrac,
	}), tr.snapshot()
}

// sumSamples adds the re-search samples of the first n decisions.
func sumSamples(recs []controller.Reconfiguration, n int) int {
	total := 0
	for _, rec := range recs[:min(n, len(recs))] {
		total += rec.Samples
	}
	return total
}
