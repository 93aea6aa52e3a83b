package dispatch

import (
	"ribbon/internal/stats"
	"ribbon/internal/workload"
)

// The placement rules below are the only implementation of the built-in
// policies; the simulator (through the built-in Policy) and the live gateway
// router both call them. Each rule sees the pool as n instances in
// preference order, where load(i) is instance i's backlog: its queued work
// plus the query in service. An instance is idle when its load is 0.
// FirstIdle and LeastLoaded are small enough to inline, so on the hot path a
// function-literal load costs a direct call, not an indirect one.

// FirstIdle is the paper's placement rule (Sec. 5.1): the first idle
// instance in preference order, or -1 when none is idle.
func FirstIdle(n int, load func(i int) int) int {
	for i := 0; i < n; i++ {
		if load(i) == 0 {
			return i
		}
	}
	return -1
}

// LeastLoaded is join-shortest-queue: the instance with the smallest load,
// ties to preference order; -1 for an empty pool. When an instance is idle
// it agrees with FirstIdle.
func LeastLoaded(n int, load func(i int) int) int {
	best, bestLoad := -1, 0
	for i := 0; i < n; i++ {
		if l := load(i); best < 0 || l < bestLoad {
			best, bestLoad = i, l
		}
	}
	return best
}

// CostRandom draws an idle instance with probability proportional to its
// weight (see Weight), spreading load toward cheap instances without
// starving expensive ones. It returns -1 without drawing when no instance is
// idle; otherwise it calls draw once for a uniform sample in [0, 1).
func CostRandom(n int, load func(i int) int, weight func(i int) float64, draw func() float64) int {
	total := 0.0
	for i := 0; i < n; i++ {
		if load(i) == 0 {
			total += weight(i)
		}
	}
	if total == 0 {
		return -1
	}
	u := draw() * total
	last := -1
	for i := 0; i < n; i++ {
		if load(i) != 0 {
			continue
		}
		last = i
		if u -= weight(i); u < 0 {
			return i
		}
	}
	// Float round-off exhausted u on the last idle instance.
	return last
}

// Weight is an instance's cost-random weight: the inverse of its hourly
// price, or 1 for a degenerate zero-price catalog entry.
func Weight(pricePerHour float64) float64 {
	if pricePerHour > 0 {
		return 1 / pricePerHour
	}
	return 1
}

// PickIdle is the placement rule of sp's kind for an arrival: the idle
// instance it starts on — a CostRandom draw for KindCostRandom, FirstIdle
// for every other kind (for KindLeastLoaded that is also the shortest
// queue) — or -1 when no instance is idle. draw is called only by a
// cost-random pick that finds an idle instance. The built-in Policy makes
// the same choice in place, so the simulator's FirstIdle call inlines.
func (sp Spec) PickIdle(n int, load func(i int) int, weight func(i int) float64, draw func() float64) int {
	if sp.Kind == KindCostRandom {
		return CostRandom(n, load, weight, draw)
	}
	return FirstIdle(n, load)
}

// Sheds is the criticality policy's shed test for an arrival that found no
// idle instance: it is dropped when it is Sheddable (rank 0) and at least
// ShedAt queries already wait in the pool. Other kinds never shed.
func (sp Spec) Sheds(rank, queued int) bool {
	return sp.Kind == KindCriticality && rank == workload.ClassSheddable.Rank() && queued >= sp.ShedAt()
}

// builtin is the Policy of every built-in kind: the shared placement rules
// over the simulator's queue model. An arrival that finds no idle instance
// joins the least-loaded instance's own queue under KindLeastLoaded; under
// every other kind it waits in the shared queue, which KindCriticality
// orders by class and guards with the shed test.
type builtin struct {
	spec Spec
	rng  *stats.RNG // cost-random draws
}

// deterministic holds one shared, immutable Policy per built-in kind that
// keeps no per-run state at the default shed threshold, so an evaluation
// run of one builds its policy without allocating.
var deterministic = map[Kind]*builtin{
	"":              {},
	KindFCFS:        {spec: Spec{Kind: KindFCFS}},
	KindLeastLoaded: {spec: Spec{Kind: KindLeastLoaded}},
	KindCriticality: {spec: Spec{Kind: KindCriticality}},
}

func newBuiltin(sp Spec, rng *stats.RNG) *builtin {
	if p := deterministic[sp.Kind]; p != nil && sp.ShedQueueLength == 0 {
		return p
	}
	return &builtin{spec: sp, rng: rng}
}

func (p *builtin) Name() string { return p.spec.Name() }

func (p *builtin) Pick(idx int, q workload.Query, s *State) Decision {
	n := s.Instances()
	// A simulated instance drains its own queue before it goes idle, so
	// its busy flag alone is the 0-or-not load the idle rules test.
	busy := func(i int) int {
		if s.busy[i] {
			return 1
		}
		return 0
	}
	i := FirstIdle(n, busy)
	if i >= 0 && p.spec.Kind == KindCostRandom {
		i = CostRandom(n, busy, func(i int) float64 { return Weight(s.types[i].PricePerHour) }, p.rng.Float64)
	}
	switch {
	case i >= 0:
		return Assign(i)
	case p.spec.Kind == KindLeastLoaded:
		return EnqueueInstance(LeastLoaded(n, func(i int) int { return s.Load(i) }))
	case p.spec.Kind != KindCriticality:
		return EnqueueShared(0)
	case p.spec.Sheds(q.Class.Rank(), s.TotalQueued()):
		return Shed()
	}
	return EnqueueShared(q.Class.Rank())
}

func (p *builtin) Next(inst int, s *State) (int, bool) {
	if p.spec.Kind == KindLeastLoaded {
		return s.PopInstance(inst)
	}
	return s.PopShared()
}
