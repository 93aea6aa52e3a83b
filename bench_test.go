// Benchmarks regenerating every table and figure of the paper's evaluation
// (one benchmark per experiment; see DESIGN.md §4 for the index), the
// ablation studies of Ribbon's design choices (DESIGN.md §5), and
// micro-benchmarks of the hot paths. Run with:
//
//	go test -bench=. -benchmem
//
// Figure benchmarks report experiment-level metrics (savings, sample
// counts) via b.ReportMetric; cmd/ribbon-bench prints the full row data.
package ribbon_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"ribbon/internal/baselines"
	"ribbon/internal/bo"
	"ribbon/internal/cloud"
	"ribbon/internal/core"
	"ribbon/internal/dispatch"
	"ribbon/internal/experiments"
	"ribbon/internal/gp"
	"ribbon/internal/linalg"
	"ribbon/internal/models"
	"ribbon/internal/serving"
	"ribbon/internal/stats"
	"ribbon/internal/workload"
)

var benchSetup = experiments.Setup{Seed: 42, Queries: 4000, Budget: 120}

func reportRows(b *testing.B, t experiments.Table) {
	b.Helper()
	b.ReportMetric(float64(len(t.Rows)), "rows")
}

// --- Table and figure benchmarks (one per paper experiment) ---

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportRows(b, experiments.Table1())
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportRows(b, experiments.Table2())
	}
}

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportRows(b, experiments.Table3())
	}
}

func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportRows(b, experiments.Fig3())
	}
}

func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportRows(b, experiments.Fig4(benchSetup))
	}
}

func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportRows(b, experiments.Fig5(benchSetup))
	}
}

func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportRows(b, experiments.Fig7(benchSetup))
	}
}

func BenchmarkFig8(b *testing.B) {
	// Three pool cardinalities on MT-WND keep the bench tractable; the
	// full five-type sweep runs via `ribbon-bench fig8 -fig8-types 5`.
	for i := 0; i < b.N; i++ {
		reportRows(b, experiments.Fig8(benchSetup, "MT-WND", 3))
	}
}

func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Fig9(benchSetup)
		reportRows(b, t)
	}
	if s, ok := experiments.MaxSaving(benchSetup, "MT-WND"); ok {
		b.ReportMetric(100*s, "mtwnd-saving-%")
	}
}

func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportRows(b, experiments.Fig10(benchSetup, []string{"MT-WND"}))
	}
}

func BenchmarkFig11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportRows(b, experiments.Fig11(benchSetup))
	}
}

func BenchmarkFig12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportRows(b, experiments.Fig12(benchSetup))
	}
}

func BenchmarkFig13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportRows(b, experiments.Fig13(benchSetup, []string{"MT-WND"}))
	}
}

func BenchmarkFig14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportRows(b, experiments.Fig14(benchSetup, []string{"MT-WND"}))
	}
}

func BenchmarkFig15(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportRows(b, experiments.Fig15(benchSetup))
	}
}

func BenchmarkFig16(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportRows(b, experiments.Fig16(benchSetup, "MT-WND"))
	}
}

// --- Ablation benchmarks (DESIGN.md §5) ---

// ablationSearch runs Ribbon with the given options on the Fig. 4 space and
// reports the mean samples-to-optimum over a few seeds (budget on miss).
func ablationSearch(b *testing.B, opts core.Options) {
	b.Helper()
	spec := serving.MustNewPoolSpec(models.MustLookup("MT-WND"), 0.99, "g4dn", "t3")
	bounds := []int{5, 12}
	const optimum = 2.2436
	const budget = 78
	seeds := []uint64{11, 23, 37}
	for i := 0; i < b.N; i++ {
		total := 0
		for _, seed := range seeds {
			ev := serving.NewCachingEvaluator(serving.NewSimEvaluator(spec,
				serving.SimOptions{Queries: 4000, Seed: 42}))
			res := core.NewSearcher(ev, bounds, seed, opts).Run(budget)
			n, ok := res.SamplesToReachCost(optimum)
			if !ok {
				n = budget
			}
			total += n
		}
		b.ReportMetric(float64(total)/float64(len(seeds)), "samples-to-opt")
	}
}

func BenchmarkAblationBaseline(b *testing.B) { ablationSearch(b, core.Options{}) }

func BenchmarkAblationNoRounding(b *testing.B) {
	ablationSearch(b, core.Options{DisableRounding: true})
}

func BenchmarkAblationNaiveObjective(b *testing.B) {
	ablationSearch(b, core.Options{UseNaiveObjective: true})
}

func BenchmarkAblationNoPruning(b *testing.B) {
	ablationSearch(b, core.Options{DisablePruning: true})
}

func BenchmarkAblationWarmStartVsCold(b *testing.B) {
	spec := serving.MustNewPoolSpec(models.MustLookup("MT-WND"), 0.99, "g4dn", "t3")
	bounds := []int{5, 12}
	mk := func(scale float64) *serving.CachingEvaluator {
		return serving.NewCachingEvaluator(serving.NewSimEvaluator(spec,
			serving.SimOptions{Queries: 4000, Seed: 42, RateScale: scale}))
	}
	base := core.NewSearcher(mk(1), bounds, 5, core.Options{}).Run(40)
	for i := 0; i < b.N; i++ {
		warm := core.NewAdaptedSearcher(mk(1.5), bounds, 6, core.Options{}, base.Steps, base.BestResult).Run(40)
		cold := core.NewSearcher(mk(1.5), bounds, 6, core.Options{}).Run(40)
		if warm.Found {
			n, _ := warm.SamplesToReachCost(warm.BestResult.CostPerHour)
			b.ReportMetric(float64(n), "warm-samples")
		}
		if cold.Found {
			n, _ := cold.SamplesToReachCost(cold.BestResult.CostPerHour)
			b.ReportMetric(float64(n), "cold-samples")
		}
	}
}

func BenchmarkDispatchComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportRows(b, experiments.DispatchComparison(benchSetup, "MT-WND", nil))
	}
}

// --- Micro-benchmarks of the hot paths ---

// BenchmarkDispatchPick times the per-event dispatch hot path — one Pick
// plus, when the arrival queues, the matching Next — for every built-in
// policy over a half-busy 7-instance pool. This is the loop every future
// routing change pays per query.
func BenchmarkDispatchPick(b *testing.B) {
	m := models.MustLookup("MT-WND")
	spec := serving.MustNewPoolSpec(m, 0.99, "g4dn", "c5", "r5n")
	var types []cloud.InstanceType
	for i, n := range []int{3, 1, 3} {
		for k := 0; k < n; k++ {
			types = append(types, spec.Types[i])
		}
	}
	stream := workload.Generate(m, workload.Options{Queries: 512, Seed: 1,
		Mix: workload.ClassMix{Critical: 0.2, Standard: 0.6, Sheddable: 0.2}})
	for _, kind := range dispatch.Kinds() {
		b.Run(string(kind), func(b *testing.B) {
			pol := dispatch.Spec{Kind: kind}.MustNew(types, stats.Derive(1, "bench", string(kind)))
			st := dispatch.NewState(types)
			for i := 0; i < len(types)/2; i++ { // half the pool is busy
				st.SetBusy(i, true)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := stream.Queries[i%len(stream.Queries)]
				d := pol.Pick(i, q, st)
				switch d.Action {
				case dispatch.ActAssign:
					// Keep pool occupancy steady: release the
					// instance immediately.
				case dispatch.ActEnqueueShared:
					st.PushShared(i, d.Rank)
					pol.Next(0, st)
				case dispatch.ActEnqueueInstance:
					st.PushInstance(d.Instance, i)
					pol.Next(d.Instance, st)
				}
			}
		})
	}
}

// BenchmarkEvaluate times one full discrete-event evaluation — the costly
// black-box sample of the BO loop (hundreds per search). Its allocs/op is a
// guarded regression target: the typed-event merged loop plus the buffer
// arena keep it near zero (the pre-rebuild closure-per-event scheme paid
// ~24k allocs per 4000-query run).
func BenchmarkEvaluate(b *testing.B) {
	spec := serving.MustNewPoolSpec(models.MustLookup("MT-WND"), 0.99, "g4dn", "c5", "r5n")
	ev := serving.NewSimEvaluator(spec, serving.SimOptions{Queries: 4000, Seed: 1})
	cfg := serving.Config{3, 1, 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Evaluate(cfg)
	}
}

// BenchmarkSuggest times the acquisition step over the indexed candidate
// set: a surrogate refresh plus the exact EI argmax scan. The small grid is
// the paper-scale space (and the old BenchmarkBOSuggest configuration, for
// before/after comparison); the large grid is scan-dominated and shows the
// sharded scan, serial vs parallel (the parallel variant only helps with
// GOMAXPROCS > 1). Each runs twice: refitting hyper-parameters on every
// observation (the ModeSerial path), and with Options.Incremental (every
// other mode), where the surrogate grows by rank-1 updates between re-tunes
// and the scan extends each cell's cached rows instead of recomputing them.
func BenchmarkSuggest(b *testing.B) {
	obj := func(x []int) float64 {
		s := 0.0
		for i, v := range x {
			d := float64(v) - float64(3+2*i)
			s += d * d
		}
		return -s
	}
	run := func(b *testing.B, bounds []int, seeds [][]int, incremental bool) {
		var o *bo.Optimizer
		reset := func() {
			o = bo.New(bounds, bo.Options{Rounding: true, Seed: 1, Incremental: incremental})
			for _, x := range seeds {
				o.Observe(x, obj(x))
			}
		}
		reset()
		v := 0.0
		steps := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Keep the observation count in a realistic search's range
			// (and the grid from draining) by restarting periodically.
			if steps++; steps > 40 {
				reset()
				steps = 1
			}
			x, ok := o.Suggest()
			if !ok {
				b.Fatal("grid exhausted")
			}
			v += 0.001
			o.Observe(x, obj(x)-v) // forces a surrogate refresh next iteration
		}
	}
	seeds := [][]int{{0, 0, 0}, {23, 23, 15}, {11, 12, 7}}
	for _, inc := range []struct {
		suffix      string
		incremental bool
	}{{"", false}, {"-incremental", true}} {
		b.Run("paper-grid"+inc.suffix, func(b *testing.B) {
			run(b, []int{5, 12}, [][]int{{0, 0}, {5, 12}, {2, 6}}, inc.incremental)
		})
		b.Run("grid9216/scan-serial"+inc.suffix, func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			run(b, []int{23, 23, 15}, seeds, inc.incremental)
		})
		b.Run("grid9216/scan-parallel"+inc.suffix, func(b *testing.B) {
			run(b, []int{23, 23, 15}, seeds, inc.incremental)
		})
	}
}

// slowEvaluator models a real deployment backend: each evaluation holds a
// measurement window of wall-clock time. It is the regime the paper
// actually operates in (sampling a configuration means serving traffic on
// it) and where the speculative parallel search shines: misses cost a
// window, hits commit instantly.
type slowEvaluator struct {
	inner serving.Evaluator
	delay time.Duration
}

func (s slowEvaluator) Spec() serving.PoolSpec { return s.inner.Spec() }
func (s slowEvaluator) Evaluate(cfg serving.Config) serving.Result {
	time.Sleep(s.delay)
	return s.inner.Evaluate(cfg)
}

// BenchmarkSearch times a full 40-evaluation Ribbon search, serial vs
// parallel. The "sim" variants evaluate with the in-process simulator
// (CPU-bound: parallel gains track GOMAXPROCS); the "deploy25ms" variants
// add a 25 ms measurement window per evaluation (latency-bound: parallel
// gains track the speculation hit rate — ≥2x at parallelism 4 on any
// machine). Every variant returns a bit-identical SearchResult.
func BenchmarkSearch(b *testing.B) {
	spec := serving.MustNewPoolSpec(models.MustLookup("MT-WND"), 0.99, "g4dn", "c5", "r5n")
	const budget = 40
	bounds := []int{5, 8, 8}
	for _, mode := range []struct {
		name  string
		delay time.Duration
	}{{"sim", 0}, {"deploy25ms", 25 * time.Millisecond}} {
		for _, p := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/parallelism=%d", mode.name, p), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					var inner serving.Evaluator = serving.NewSimEvaluator(spec,
						serving.SimOptions{Queries: 2000, Seed: 5})
					if mode.delay > 0 {
						inner = slowEvaluator{inner: inner, delay: mode.delay}
					}
					ev := serving.NewCachingEvaluator(inner)
					res := core.NewSearcher(ev, bounds, 5, core.Options{Parallelism: p}).Run(budget)
					if !res.Found {
						b.Fatal("search found no QoS-meeting configuration")
					}
				}
			})
		}
	}
}

func BenchmarkWorkloadGenerate(b *testing.B) {
	m := models.MustLookup("MT-WND")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		workload.Generate(m, workload.Options{Queries: 4000, Seed: uint64(i + 1)})
	}
}

func BenchmarkGPFitAndPredict(b *testing.B) {
	r := stats.Derive(1, "bench-gp")
	n := 40
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = []float64{float64(r.IntN(6)), float64(r.IntN(13))}
		ys[i] = r.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := gp.FitAuto(xs, ys, gp.HyperOptions{Rounding: true})
		if err != nil {
			b.Fatal(err)
		}
		for x := 0; x < 6; x++ {
			for y := 0; y < 13; y++ {
				g.Predict([]float64{float64(x), float64(y)})
			}
		}
	}
}

func BenchmarkCholesky50(b *testing.B) {
	r := stats.Derive(2, "bench-chol")
	n := 50
	m := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Set(i, j, r.NormFloat64())
		}
	}
	a := m.Mul(m.Transpose())
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := linalg.NewCholesky(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExhaustiveSearch(b *testing.B) {
	spec := serving.MustNewPoolSpec(models.MustLookup("MT-WND"), 0.99, "g4dn", "t3")
	for i := 0; i < b.N; i++ {
		ev := serving.NewCachingEvaluator(serving.NewSimEvaluator(spec,
			serving.SimOptions{Queries: 4000, Seed: 42}))
		baselines.Exhaustive{}.Search(ev, []int{5, 12}, 0, 1)
	}
}
