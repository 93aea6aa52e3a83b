package core

import (
	"math"
	"testing"
	"testing/quick"

	"ribbon/internal/models"
	"ribbon/internal/serving"
)

func mtwndSpec(t *testing.T) serving.PoolSpec {
	t.Helper()
	return serving.MustNewPoolSpec(models.MustLookup("MT-WND"), 0.99, "g4dn", "t3")
}

func mkEval(t *testing.T, queries int) *serving.CachingEvaluator {
	t.Helper()
	return serving.NewCachingEvaluator(
		serving.NewSimEvaluator(mtwndSpec(t), serving.SimOptions{Queries: queries, Seed: 42}))
}

func TestObjectiveRegimes(t *testing.T) {
	spec := mtwndSpec(t)
	bounds := []int{5, 12}

	// Violating: f = Rsat / (2 Tqos).
	viol := serving.Result{Config: serving.Config{1, 0}, Rsat: 0.5, CostPerHour: spec.Cost(serving.Config{1, 0})}
	if got, want := Objective(spec, bounds, viol), 0.5*0.5/0.99; math.Abs(got-want) > 1e-12 {
		t.Fatalf("violating objective = %g, want %g", got, want)
	}
	// Meeting: f = 1/2 + (1 - cost/maxCost)/2.
	cfg := serving.Config{3, 4}
	meet := serving.Result{Config: cfg, Rsat: 0.995, MeetsQoS: true, CostPerHour: spec.Cost(cfg)}
	maxCost := 5*0.526 + 12*0.1664
	want := 0.5 + 0.5*(1-spec.Cost(cfg)/maxCost)
	if got := Objective(spec, bounds, meet); math.Abs(got-want) > 1e-12 {
		t.Fatalf("meeting objective = %g, want %g", got, want)
	}
}

// Eq. 2's key guarantees: output in [0,1]; every QoS-meeting configuration
// scores above every violating one; among meeting configs cheaper is better;
// among violating configs higher Rsat is better.
func TestObjectiveOrderingProperties(t *testing.T) {
	spec := mtwndSpec(t)
	bounds := []int{5, 12}
	f := func(g1, t1, g2, t2 uint8, r1Raw, r2Raw uint16) bool {
		c1 := serving.Config{int(g1 % 6), int(t1 % 13)}
		c2 := serving.Config{int(g2 % 6), int(t2 % 13)}
		r1 := float64(r1Raw%1000) / 999
		r2 := float64(r2Raw%1000) / 999
		res1 := serving.Result{Config: c1, Rsat: r1, MeetsQoS: r1 >= 0.99, CostPerHour: spec.Cost(c1)}
		res2 := serving.Result{Config: c2, Rsat: r2, MeetsQoS: r2 >= 0.99, CostPerHour: spec.Cost(c2)}
		o1 := Objective(spec, bounds, res1)
		o2 := Objective(spec, bounds, res2)
		if o1 < 0 || o1 > 1 || o2 < 0 || o2 > 1 {
			return false
		}
		if res1.MeetsQoS && !res2.MeetsQoS && o1 <= o2 {
			return false
		}
		if res1.MeetsQoS && res2.MeetsQoS && res1.CostPerHour < res2.CostPerHour-1e-9 && o1 < o2 {
			return false
		}
		if !res1.MeetsQoS && !res2.MeetsQoS && r1 > r2 && o1 < o2 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestObjectiveSmootherThanNaive(t *testing.T) {
	// The naive objective is flat (0) across the violating region; Eq. 2
	// distinguishes violating configurations by Rsat.
	spec := mtwndSpec(t)
	bounds := []int{5, 12}
	a := serving.Result{Config: serving.Config{1, 0}, Rsat: 0.2, CostPerHour: 0.526}
	b := serving.Result{Config: serving.Config{3, 0}, Rsat: 0.9, CostPerHour: 3 * 0.526}
	if NaiveObjective(spec, bounds, a) != 0 || NaiveObjective(spec, bounds, b) != 0 {
		t.Fatalf("naive objective must be flat over violations")
	}
	if Objective(spec, bounds, a) >= Objective(spec, bounds, b) {
		t.Fatalf("Eq. 2 must slope upward with Rsat in the violating region")
	}
}

func TestObjectivePanics(t *testing.T) {
	spec := mtwndSpec(t)
	res := serving.Result{Rsat: 1, MeetsQoS: true}
	for _, f := range []func(){
		func() { Objective(spec, []int{5}, res) },
		func() { Objective(spec, []int{-1, 3}, res) },
		func() { Objective(spec, []int{0, 0}, res) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestPruneSetDominance(t *testing.T) {
	var p PruneSet
	p.AddCeiling(serving.Config{2, 3})
	cases := []struct {
		cfg  serving.Config
		want bool
	}{
		{serving.Config{2, 3}, true},
		{serving.Config{0, 0}, true},
		{serving.Config{1, 3}, true},
		{serving.Config{3, 3}, false},
		{serving.Config{2, 4}, false},
		{serving.Config{0, 4}, false},
	}
	for _, c := range cases {
		if got := p.Pruned(c.cfg); got != c.want {
			t.Errorf("Pruned(%v) = %v, want %v", c.cfg, got, c.want)
		}
	}
}

func TestPruneSetKeepsOnlyMaximalCeilings(t *testing.T) {
	var p PruneSet
	p.AddCeiling(serving.Config{1, 1})
	p.AddCeiling(serving.Config{2, 2}) // absorbs {1,1}
	if p.Size() != 1 {
		t.Fatalf("ceilings = %d, want 1 after absorption", p.Size())
	}
	p.AddCeiling(serving.Config{1, 1}) // already covered
	if p.Size() != 1 {
		t.Fatalf("re-adding covered ceiling changed the set")
	}
	p.AddCeiling(serving.Config{0, 5}) // incomparable: kept
	if p.Size() != 2 {
		t.Fatalf("incomparable ceiling dropped")
	}
	cs := p.Ceilings()
	cs[0][0] = 99
	if p.Pruned(serving.Config{99, 0}) {
		t.Fatalf("Ceilings leaked internal state")
	}
}

// Soundness property: anything the prune set rejects is genuinely dominated
// by some inserted ceiling.
func TestPruneSetSoundness(t *testing.T) {
	f := func(ceilings [][2]uint8, probe [2]uint8) bool {
		var p PruneSet
		var inserted []serving.Config
		for _, c := range ceilings {
			cfg := serving.Config{int(c[0] % 10), int(c[1] % 10)}
			p.AddCeiling(cfg)
			inserted = append(inserted, cfg)
		}
		q := serving.Config{int(probe[0] % 10), int(probe[1] % 10)}
		got := p.Pruned(q)
		want := false
		for _, c := range inserted {
			if q.DominatedBy(c) {
				want = true
				break
			}
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDiscoverBounds(t *testing.T) {
	ev := mkEval(t, 3000)
	bounds, err := DiscoverBounds(ev, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(bounds) != 2 {
		t.Fatalf("bounds = %v", bounds)
	}
	// g4dn meets QoS homogeneously around 5 instances; t3 saturates below
	// target somewhere in the low teens (Fig. 4 / Fig. 12 geometry).
	if bounds[0] < 3 || bounds[0] > 8 {
		t.Errorf("g4dn bound = %d, want ~5", bounds[0])
	}
	if bounds[1] < 8 || bounds[1] > 20 {
		t.Errorf("t3 bound = %d, want ~12", bounds[1])
	}
}

func TestDiscoverBoundsValidation(t *testing.T) {
	if _, err := DiscoverBounds(mkEval(t, 100), 0); err == nil {
		t.Fatalf("accepted maxPerType 0")
	}
}

func TestSearcherFindsOptimalDiverseConfig(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	ev := mkEval(t, 4000)
	bounds, err := DiscoverBounds(mkEval(t, 4000), 20)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSearcher(ev, bounds, 7, Options{})
	res := s.Run(40)
	if !res.Found {
		t.Fatalf("Ribbon found no QoS-meeting configuration in 40 samples")
	}
	// The 2-type ground truth is (3+4) at $2.2436 (Fig. 4); accept
	// anything meeting QoS within a whisker of that cost.
	if res.BestResult.CostPerHour > 2.2436+1e-9 {
		t.Errorf("Ribbon best %v at $%.4f, want <= $2.2436", res.BestConfig, res.BestResult.CostPerHour)
	}
	if res.Samples > 40 {
		t.Errorf("budget exceeded: %d", res.Samples)
	}
	// Paper: fewer than ~20 samples to optimum for MT-WND.
	n, reached := res.SamplesToReachCost(2.2436)
	if !reached || n > 35 {
		t.Errorf("took %d samples to reach the optimum (reached=%v)", n, reached)
	}
}

func TestSearcherRespectsBudget(t *testing.T) {
	ev := mkEval(t, 1000)
	s := NewSearcher(ev, []int{5, 12}, 1, Options{})
	res := s.Run(5)
	if res.Samples != 5 {
		t.Fatalf("Samples = %d, want exactly 5", res.Samples)
	}
	if ev.Samples() != 5 {
		t.Fatalf("evaluator charged %d samples", ev.Samples())
	}
}

func TestSearcherPruningNeverDiscardsOptimum(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	// Run with pruning and without; both must find the same best cost.
	bounds := []int{5, 12}
	with := NewSearcher(mkEval(t, 3000), bounds, 3, Options{}).Run(60)
	without := NewSearcher(mkEval(t, 3000), bounds, 3, Options{DisablePruning: true}).Run(60)
	if !with.Found || !without.Found {
		t.Fatalf("searches failed: with=%v without=%v", with.Found, without.Found)
	}
	if with.BestResult.CostPerHour > without.BestResult.CostPerHour+1e-9 {
		t.Fatalf("pruning lost the optimum: $%.4f vs $%.4f",
			with.BestResult.CostPerHour, without.BestResult.CostPerHour)
	}
}

func TestSearcherTraceConsistency(t *testing.T) {
	ev := mkEval(t, 1000)
	s := NewSearcher(ev, []int{5, 12}, 9, Options{})
	res := s.Run(12)
	best := math.Inf(1)
	for i, st := range res.Steps {
		if st.Index != i {
			t.Fatalf("step %d has index %d", i, st.Index)
		}
		if st.Result.MeetsQoS && st.Result.CostPerHour < best {
			best = st.Result.CostPerHour
		}
		if st.BestCost != best {
			t.Fatalf("step %d BestCost %g, want %g", i, st.BestCost, best)
		}
	}
	if _, ok := s.BestMeeting(); ok != res.Found {
		t.Fatalf("BestMeeting and Found disagree")
	}
}

func TestSearcherSeedConfigs(t *testing.T) {
	ev := mkEval(t, 1000)
	seeds := []serving.Config{{5, 5}, {2, 2}}
	s := NewSearcher(ev, []int{5, 12}, 1, Options{InitialConfigs: seeds})
	st1, _ := s.Step()
	st2, _ := s.Step()
	if st1.Config.Key() != "5+5" || st2.Config.Key() != "2+2" {
		t.Fatalf("seed order violated: %v, %v", st1.Config, st2.Config)
	}
}

func TestRibbonStrategyInterface(t *testing.T) {
	var s Strategy = RibbonStrategy{}
	if s.Name() != "RIBBON" {
		t.Fatalf("Name = %q", s.Name())
	}
	res := s.Search(mkEval(t, 800), []int{5, 12}, 6, 2)
	if res.Strategy != "RIBBON" || res.Samples != 6 {
		t.Fatalf("Search summary wrong: %+v", res)
	}
}

func TestSamplesToReachCost(t *testing.T) {
	r := SearchResult{Steps: []Step{
		{Result: serving.Result{MeetsQoS: false, CostPerHour: 1}},
		{Estimated: true, Result: serving.Result{MeetsQoS: false}},
		{Result: serving.Result{MeetsQoS: true, CostPerHour: 2.0}},
		{Result: serving.Result{MeetsQoS: true, CostPerHour: 1.5}},
	}}
	n, ok := r.SamplesToReachCost(2.0)
	if !ok || n != 2 {
		t.Fatalf("SamplesToReachCost(2.0) = %d,%v; want 2,true (estimates are free)", n, ok)
	}
	n, ok = r.SamplesToReachCost(1.5)
	if !ok || n != 3 {
		t.Fatalf("SamplesToReachCost(1.5) = %d,%v; want 3,true", n, ok)
	}
	if _, ok := r.SamplesToReachCost(0.5); ok {
		t.Fatalf("unreachable target reported reached")
	}
}

func TestAdaptedSearcherWarmStart(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	bounds := []int{5, 12}
	// Phase 1: search at base load.
	ev1 := mkEval(t, 4000)
	s1 := NewSearcher(ev1, bounds, 5, Options{})
	r1 := s1.Run(40)
	if !r1.Found {
		t.Fatalf("phase 1 found nothing")
	}

	// Phase 2: 1.5x load.
	spec := mtwndSpec(t)
	mk2 := func() *serving.CachingEvaluator {
		return serving.NewCachingEvaluator(serving.NewSimEvaluator(spec,
			serving.SimOptions{Queries: 4000, Seed: 42, RateScale: 1.5}))
	}
	ev2 := mk2()
	s2 := NewAdaptedSearcher(ev2, bounds, 6, Options{}, r1.Steps, r1.BestResult)
	r2 := s2.Run(40)

	// The warm start must contain estimated pseudo-steps and they must
	// not be charged as samples.
	est := 0
	for _, st := range r2.Steps {
		if st.Estimated {
			est++
			if st.Result.MeetsQoS {
				t.Fatalf("estimated step marked as meeting QoS")
			}
		}
	}
	if est == 0 {
		t.Errorf("no estimated warm-start steps recorded")
	}
	if r2.Samples+est != len(r2.Steps) {
		t.Errorf("sample accounting wrong: %d samples, %d steps, %d estimated",
			r2.Samples, len(r2.Steps), est)
	}
	if !r2.Found {
		t.Fatalf("adapted search found no configuration for the 1.5x load")
	}
	// The new optimum must cost more than the old one (heavier load).
	if r2.BestResult.CostPerHour <= r1.BestResult.CostPerHour {
		t.Errorf("1.5x load optimum ($%.3f) not above base optimum ($%.3f)",
			r2.BestResult.CostPerHour, r1.BestResult.CostPerHour)
	}

	// Cold restart for comparison: warm start should need no more real
	// samples to find its optimum (the paper reports ~40% fewer).
	cold := NewSearcher(mk2(), bounds, 6, Options{}).Run(40)
	if cold.Found && r2.Found {
		warmN, _ := r2.SamplesToReachCost(r2.BestResult.CostPerHour)
		coldN, reached := cold.SamplesToReachCost(r2.BestResult.CostPerHour)
		if reached && warmN > coldN+10 {
			t.Errorf("warm start (%d samples) much slower than cold restart (%d)", warmN, coldN)
		}
	}
}

func TestAdaptedSearcherNoChangeNeeded(t *testing.T) {
	// Adapting to an identical load: the previous optimum still meets QoS
	// and the searcher starts from it without estimates.
	bounds := []int{5, 12}
	ev1 := mkEval(t, 3000)
	r1 := NewSearcher(ev1, bounds, 5, Options{}).Run(30)
	if !r1.Found {
		t.Skip("needs a found optimum")
	}
	ev2 := mkEval(t, 3000)
	s2 := NewAdaptedSearcher(ev2, bounds, 6, Options{}, r1.Steps, r1.BestResult)
	sum := s2.Summary()
	if !sum.Found {
		t.Fatalf("previous optimum should still meet QoS on the same load")
	}
	for _, st := range sum.Steps {
		if st.Estimated {
			t.Fatalf("estimates injected although the optimum still meets QoS")
		}
	}
}
