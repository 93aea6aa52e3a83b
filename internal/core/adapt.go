package core

import (
	"math"

	"ribbon/internal/serving"
)

// NewAdaptedSearcher builds a warm-started searcher for a changed load
// (Sec. 4): instead of forgetting the previous exploration, it
//
//  1. re-measures the previous optimal configuration under the new load
//     (the only real evaluation the warm start spends),
//  2. collects the set S of previously explored configurations that
//     performed no better than the previous optimal — none of them can
//     satisfy the new, heavier load either,
//  3. estimates their new satisfaction rates with the paper's linear rule
//     Rsat_new(s) = Rsat_old(s) * Rsat_new(opt)/Rsat_old(opt) and feeds the
//     estimates to the new BO as pseudo-observations, and
//  4. seeds the prune set from every estimate that violates beyond the
//     threshold.
//
// prevSteps is the previous search's trace and prevBest its optimal result.
// If the previous optimum still meets QoS under newEv, no adaptation is
// needed and the searcher simply starts from that observation.
func NewAdaptedSearcher(newEv serving.Evaluator, bounds []int, seed uint64, opts Options,
	prevSteps []Step, prevBest serving.Result) *Searcher {

	opts.InitialConfigs = []serving.Config{} // no corner seeding: warm start instead
	s := NewSearcher(newEv, bounds, seed, opts)

	// Step 1: the previous optimum is still deployed; measuring it under
	// the new load is free of extra provisioning.
	newOpt := s.evaluate(prevBest.Config)
	if newOpt.Result.MeetsQoS {
		return s
	}

	// Step 2+3: linear re-estimation of the stale exploration record.
	ratio := 0.0
	if prevBest.Rsat > 0 {
		ratio = newOpt.Result.Rsat / prevBest.Rsat
	}
	tqos := s.spec.QoSPercentile
	estimated := make(map[string]bool)
	for _, st := range prevSteps {
		if st.Estimated {
			continue
		}
		if st.Config.Key() == prevBest.Config.Key() {
			continue // already measured for real
		}
		if st.Result.Rsat >= prevBest.Rsat-s.opts.PruneThreshold {
			// Performed at least comparably to the previous optimum on
			// the old load (within the prune margin theta); it might
			// satisfy the new load, so leave it unexplored for the BO to
			// consider. The margin matters: near saturation every large
			// configuration measures within noise of the optimum, and
			// down-scaling those by the optimum's (possibly zero)
			// new-load ratio would prune — via their dominance down-sets
			// — the very region the re-search must explore. Only
			// materially worse performers carry transferable evidence.
			continue
		}
		est := math.Min(1, st.Result.Rsat*ratio)
		synth := serving.Result{
			Config:      st.Config.Clone(),
			CostPerHour: st.Result.CostPerHour,
			Rsat:        est,
			MeetsQoS:    false,
			Queries:     0,
		}
		obj := 0.5 * est / tqos
		if s.opts.UseNaiveObjective {
			obj = 0
		}
		s.opt.Observe(st.Config, obj)
		estimated[st.Config.Key()] = true
		if !s.opts.DisablePruning && est < tqos-s.opts.PruneThreshold {
			s.prune.AddCeiling(st.Config)
		}
		rec := Step{
			Index:     len(s.trace),
			Config:    st.Config.Clone(),
			Result:    synth,
			Objective: obj,
			BestCost:  s.bestCost(),
			Estimated: true,
		}
		s.trace = append(s.trace, rec)
		if s.opts.Progress != nil {
			s.opts.Progress(rec)
		}
	}

	// Re-anchor from the top of the box: under a heavier load the all-bounds
	// corner is the configuration most likely to still satisfy QoS, so
	// evaluating it first hands the re-search an incumbent and a cost
	// ceiling right away. Without it, a collapsed estimate ratio (the
	// previous optimum satisfying none of the new load) leaves the surrogate
	// signal-free and the EI tie-break enumerating open cells bottom-up —
	// spending the whole budget far below the feasible region. The corner
	// was deliberately left unestimated unless it performed materially worse
	// than the previous optimum.
	corner := make(serving.Config, len(bounds))
	for i, b := range bounds {
		corner[i] = b
	}
	if corner.Key() != prevBest.Config.Key() && !estimated[corner.Key()] {
		s.queue = []serving.Config{corner}
	}
	return s
}
