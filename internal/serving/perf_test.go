package serving

import (
	"math"
	"sync"
	"testing"

	"ribbon/internal/models"
	"ribbon/internal/workload"
)

// The zero-allocation contract of the simulator hot path: once the
// evaluator's arena has warmed up, Evaluate must stay far below the old
// closure-per-event scheme (~24k allocs per 4000-query run). A run makes 11:
// the per-run RNG derivations, the deployment key and the Result clone. The
// bound leaves no room for a per-evaluation buffer that belongs in the
// arena, such as a latency-model slice or a selection scratch. Under the
// race detector sync.Pool drops a random quarter of the arenas, each of
// which a later run must rebuild, so there the bound stays at 64.
func TestEvaluateAllocs(t *testing.T) {
	spec := MustNewPoolSpec(models.MustLookup("MT-WND"), 0.99, "g4dn", "c5", "r5n")
	ev := NewSimEvaluator(spec, SimOptions{Queries: 4000, Seed: 1})
	cfg := Config{3, 1, 3}
	ev.Evaluate(cfg) // warm the arena
	allocs := testing.AllocsPerRun(5, func() { ev.Evaluate(cfg) })
	limit := 16.0
	if raceEnabled {
		limit = 64
	}
	if allocs > limit {
		t.Fatalf("Evaluate allocated %.0f times per run; the arena should keep it at most %.0f", allocs, limit)
	}
}

// Concurrent evaluations of different configurations must agree exactly
// with serial ones — the parallel search leans on this.
func TestEvaluateConcurrentMatchesSerial(t *testing.T) {
	spec := MustNewPoolSpec(models.MustLookup("MT-WND"), 0.99, "g4dn", "c5", "r5n")
	ev := NewSimEvaluator(spec, SimOptions{Queries: 1000, Seed: 9,
		Mix: workload.ClassMix{Critical: 0.2, Standard: 0.6, Sheddable: 0.2}})
	cfgs := []Config{{1, 0, 1}, {2, 1, 3}, {3, 1, 3}, {0, 2, 4}, {5, 4, 4}, {1, 1, 1}}
	want := make([]Result, len(cfgs))
	for i, c := range cfgs {
		want[i] = ev.Evaluate(c)
	}
	got := make([]Result, len(cfgs))
	var wg sync.WaitGroup
	for i := range cfgs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = ev.Evaluate(cfgs[i])
		}(i)
	}
	wg.Wait()
	for i := range cfgs {
		if !resultsEqual(got[i], want[i]) {
			t.Fatalf("config %v: concurrent result %+v != serial %+v", cfgs[i], got[i], want[i])
		}
	}
}

func resultsEqual(a, b Result) bool {
	if len(a.Config) != len(b.Config) || len(a.Classes) != len(b.Classes) {
		return false
	}
	for i := range a.Config {
		if a.Config[i] != b.Config[i] {
			return false
		}
	}
	for i := range a.Classes {
		if a.Classes[i] != b.Classes[i] {
			return false
		}
	}
	return a.CostPerHour == b.CostPerHour && a.Rsat == b.Rsat && a.MeetsQoS == b.MeetsQoS &&
		sameFloat(a.MeanLatencyMs, b.MeanLatencyMs) && sameFloat(a.TailLatencyMs, b.TailLatencyMs) &&
		a.MaxQueueLen == b.MaxQueueLen && a.Queries == b.Queries && a.Aborted == b.Aborted &&
		a.Policy == b.Policy && a.Shed == b.Shed && a.ShedRate == b.ShedRate
}

func sameFloat(a, b float64) bool {
	return a == b || (math.IsInf(a, 1) && math.IsInf(b, 1))
}

// An unsorted replay trace must evaluate exactly like the same trace
// pre-sorted by arrival time (stable for ties) — the merged arrival cursor
// depends on that ordering.
func TestTraceEvaluatorUnsortedArrivals(t *testing.T) {
	m := models.MustLookup("MT-WND")
	spec := MustNewPoolSpec(m, 0.99, "g4dn", "c5")
	st := workload.Generate(m, workload.Options{Queries: 400, Seed: 4})
	// Scramble: move every third query later in the slice without touching
	// arrival times.
	scrambled := &workload.Stream{Model: st.Model, Queries: append([]workload.Query(nil), st.Queries...)}
	for i := 3; i+5 < len(scrambled.Queries); i += 7 {
		q := scrambled.Queries
		q[i], q[i+5] = q[i+5], q[i]
	}
	// Warmup trimming follows stream order, which the scramble changed, so
	// disable it and compare the order-insensitive aggregates: the served
	// schedule — and hence the latency multiset — must be identical.
	opts := SimOptions{Seed: 4, WarmupFraction: -1}
	sortedRes := NewTraceEvaluator(spec, opts, st).Evaluate(Config{2, 1})
	scrambledRes := NewTraceEvaluator(spec, opts, scrambled).Evaluate(Config{2, 1})
	if sortedRes.TailLatencyMs != scrambledRes.TailLatencyMs ||
		sortedRes.Rsat != scrambledRes.Rsat ||
		sortedRes.MaxQueueLen != scrambledRes.MaxQueueLen {
		t.Fatalf("scrambled trace diverged: %+v vs %+v", scrambledRes, sortedRes)
	}
}

// Lookahead warms the cache without charging; the first committed Evaluate
// still charges exactly once, so parallel accounting matches serial.
func TestLookaheadAccounting(t *testing.T) {
	spec := MustNewPoolSpec(models.MustLookup("MT-WND"), 0.99, "g4dn", "c5")
	c := NewCachingEvaluator(NewSimEvaluator(spec, SimOptions{Queries: 400, Seed: 2}))
	cfg := Config{2, 1}

	c.Lookahead(cfg)
	if got := c.Samples(); got != 0 {
		t.Fatalf("Lookahead charged the accounting: %d samples", got)
	}
	if _, ok := c.Peek(cfg); !ok {
		t.Fatalf("Lookahead did not cache the result")
	}
	if len(c.History()) != 0 {
		t.Fatalf("uncommitted speculative entry leaked into History")
	}

	r := c.Evaluate(cfg)
	if got := c.Samples(); got != 1 {
		t.Fatalf("committed Evaluate after Lookahead charged %d samples, want 1", got)
	}
	if c.ExplorationCost() != r.CostPerHour {
		t.Fatalf("exploration cost %v, want %v", c.ExplorationCost(), r.CostPerHour)
	}
	if len(c.History()) != 1 {
		t.Fatalf("History has %d entries, want 1", len(c.History()))
	}
	// Re-evaluating stays free, exactly as before.
	c.Evaluate(cfg)
	if got := c.Samples(); got != 1 {
		t.Fatalf("re-evaluation charged again: %d samples", got)
	}
}

// Concurrent Evaluate calls of the same configuration deduplicate to one
// inner evaluation.
func TestCachingEvaluatorSingleflight(t *testing.T) {
	spec := MustNewPoolSpec(models.MustLookup("MT-WND"), 0.99, "g4dn", "c5")
	counter := &countingEvaluator{inner: NewSimEvaluator(spec, SimOptions{Queries: 400, Seed: 2})}
	c := NewCachingEvaluator(counter)
	cfg := Config{2, 1}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Evaluate(cfg)
		}()
	}
	wg.Wait()
	counter.mu.Lock()
	n := counter.n
	counter.mu.Unlock()
	if n != 1 {
		t.Fatalf("inner evaluator ran %d times for one configuration", n)
	}
	if c.Samples() != 1 {
		t.Fatalf("samples = %d, want 1", c.Samples())
	}
}

type countingEvaluator struct {
	mu    sync.Mutex
	n     int
	inner Evaluator
}

func (c *countingEvaluator) Spec() PoolSpec { return c.inner.Spec() }
func (c *countingEvaluator) Evaluate(cfg Config) Result {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
	return c.inner.Evaluate(cfg)
}
