package bo

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"ribbon/internal/gp"
)

// freshConfigs yields distinct grid points in a fixed pseudo-random-free
// order, for driving an optimizer through many observations.
func freshConfigs(bounds []int, n int) [][]int {
	out := make([][]int, 0, n)
	for i := 0; len(out) < n; i++ {
		x := make([]int, len(bounds))
		rem := i * 7 % (boundsSpace(bounds))
		for d := len(bounds) - 1; d >= 0; d-- {
			w := bounds[d] + 1
			x[d] = rem % w
			rem /= w
		}
		dup := false
		for _, p := range out {
			if reflect.DeepEqual(p, x) {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, x)
		}
	}
	return out
}

func boundsSpace(bounds []int) int {
	s := 1
	for _, b := range bounds {
		s *= b + 1
	}
	return s
}

// The amortized schedule: the first seven re-tunes fire on every new
// observation (n = 2..8 in a from-scratch search), then only once the
// training set has grown by max(2, tunedN/2).
func TestRetuneSchedule(t *testing.T) {
	o := New([]int{9, 9}, Options{Incremental: true})
	var retunes []int
	for n := 2; n <= 45; n++ {
		if o.needRetune(n) {
			retunes = append(retunes, n)
			o.tunedN = n
			o.tuneCount++
		}
	}
	want := []int{2, 3, 4, 5, 6, 7, 8, 12, 18, 27, 40}
	if !reflect.DeepEqual(retunes, want) {
		t.Fatalf("retune boundaries %v, want %v", retunes, want)
	}
}

// A warm-started optimizer (large estimated design before the first fit)
// still gets its first seven tunes densely — the schedule counts tunes, not
// absolute size — before amortizing.
func TestRetuneScheduleWarmStart(t *testing.T) {
	o := New([]int{9, 9}, Options{Incremental: true})
	var retunes []int
	for n := 12; n <= 40; n++ { // first surrogate fit happens at n=12
		if o.needRetune(n) {
			retunes = append(retunes, n)
			o.tunedN = n
			o.tuneCount++
		}
	}
	want := []int{12, 13, 14, 15, 16, 17, 18, 27, 40}
	if !reflect.DeepEqual(retunes, want) {
		t.Fatalf("warm-start retune boundaries %v, want %v", retunes, want)
	}
}

// Between re-tune boundaries the incremental surrogate must equal a full
// gp.Fit of the tuned kernel and noise over the current data — the
// equivalence contract the trajectory's determinism rests on.
func TestIncrementalSurrogateMatchesFullFit(t *testing.T) {
	bounds := []int{7, 7, 5}
	o := New(bounds, Options{Rounding: true, Seed: 4, Incremental: true})
	obj := func(x []int) float64 {
		return -float64((x[0]-4)*(x[0]-4)+(x[1]-2)*(x[1]-2)) + 0.5*float64(x[2])
	}
	probes := [][]float64{{1, 1, 1}, {4, 2, 5}, {6, 6, 0}, {3.2, 2.7, 4.1}}
	for i, x := range freshConfigs(bounds, 30) {
		o.Observe(x, obj(x))
		g, err := o.Surrogate()
		if err != nil {
			if len(o.obs) < 2 {
				continue
			}
			t.Fatalf("n=%d: %v", len(o.obs), err)
		}
		full, err := gp.Fit(g.Kernel(), g.NoiseVar(), o.xs, o.ys)
		if err != nil {
			t.Fatalf("n=%d: full fit: %v", len(o.obs), err)
		}
		for _, p := range probes {
			mi, vi := g.Predict(p)
			mf, vf := full.Predict(p)
			if math.Abs(mi-mf) > 1e-9 || math.Abs(vi-vf) > 1e-9 {
				t.Fatalf("step %d probe %v: incremental (%g,%g) vs full (%g,%g)", i, p, mi, vi, mf, vf)
			}
		}
	}
}

// Replacing an already-incorporated target between boundaries must flow
// through the WithTargets path and still match a full fit.
func TestIncrementalReplacementMatchesFullFit(t *testing.T) {
	bounds := []int{7, 7}
	o := New(bounds, Options{Rounding: true, Seed: 5, Incremental: true})
	cfgs := freshConfigs(bounds, 14)
	for _, x := range cfgs {
		o.Observe(x, quadObj(x))
	}
	if _, err := o.Surrogate(); err != nil {
		t.Fatal(err)
	}
	if o.needRetune(len(o.obs)) {
		t.Fatalf("test setup: n=%d sits on a retune boundary", len(o.obs))
	}
	// Replace an early observation's value (a re-measurement).
	o.Observe(cfgs[1], quadObj(cfgs[1])+0.25)
	if !o.surDirty {
		t.Fatalf("replacement did not mark the surrogate dirty")
	}
	g, err := o.Surrogate()
	if err != nil {
		t.Fatal(err)
	}
	full, err := gp.Fit(g.Kernel(), g.NoiseVar(), o.xs, o.ys)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range [][]float64{{0, 0}, {3, 5}, {7, 7}} {
		mi, vi := g.Predict(p)
		mf, vf := full.Predict(p)
		if math.Abs(mi-mf) > 1e-9 || math.Abs(vi-vf) > 1e-9 {
			t.Fatalf("probe %v: (%g,%g) vs (%g,%g)", p, mi, vi, mf, vf)
		}
	}
}

// Two incremental optimizers with the same seed must produce identical
// suggestion trajectories — the schedule keys on counts, never on timing.
func TestIncrementalTrajectoryDeterministic(t *testing.T) {
	run := func() [][]int {
		o := New([]int{5, 12}, Options{Rounding: true, Seed: 7, Incremental: true})
		for _, x := range [][]int{{0, 0}, {5, 12}, {2, 6}} {
			o.Observe(x, quadObj(x))
		}
		var traj [][]int
		for i := 0; i < 20; i++ {
			x, ok := o.Suggest()
			if !ok {
				break
			}
			traj = append(traj, x)
			o.Observe(x, quadObj(x))
		}
		return traj
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("incremental trajectories diverged:\n%v\n%v", a, b)
	}
}

// The alloc-regression guard for the no-refit path: once past the dense
// regime and away from a re-tune boundary, Observe+Surrogate extends the
// cached factorization and must stay two orders of magnitude under a
// FitAuto refresh (~thousands of allocs).
func TestObserveIncrementalAllocs(t *testing.T) {
	bounds := []int{9, 9, 9}
	o := New(bounds, Options{Rounding: true, Seed: 6, Incremental: true})
	obj := func(x []int) float64 {
		return -float64((x[0]-5)*(x[0]-5)+(x[1]-3)*(x[1]-3)+(x[2]-7)*(x[2]-7)) * 0.1
	}
	cfgs := freshConfigs(bounds, 40)
	next := 0
	// Drive past the last dense boundary (n=8) and the 12-boundary into the
	// 18..26 window, refreshing the surrogate each step as a real search
	// does so the tune schedule advances and the cache is primed to extend.
	for ; next < 19; next++ {
		o.Observe(cfgs[next], obj(cfgs[next]))
		if next >= 1 {
			if _, err := o.Surrogate(); err != nil {
				t.Fatal(err)
			}
		}
	}
	allocs := testing.AllocsPerRun(3, func() {
		o.Observe(cfgs[next], obj(cfgs[next]))
		next++
		if _, err := o.Surrogate(); err != nil {
			t.Fatalf("surrogate: %v", err)
		}
	})
	if next > 27 {
		t.Fatalf("test setup: crossed the n=27 retune boundary (n=%d)", next)
	}
	if allocs > 48 {
		t.Fatalf("incremental Observe+Surrogate allocated %.0f times, want <= 48", allocs)
	}
}

// SuggestTopK's head must be bit-identical to Suggest at every step of a
// real optimization run, and the tail must be distinct open candidates.
func TestSuggestTopKHeadMatchesSuggest(t *testing.T) {
	a := seeded(t, 11)
	b := seeded(t, 11)
	for i := 0; i < 15; i++ {
		batch, okB := b.SuggestTopK(4)
		x, okA := a.Suggest()
		if okA != okB {
			t.Fatalf("step %d: ok %v vs %v", i, okA, okB)
		}
		if !okA {
			break
		}
		if !reflect.DeepEqual(batch[0], x) {
			t.Fatalf("step %d: head %v != Suggest %v", i, batch[0], x)
		}
		seen := map[string]bool{}
		for _, p := range batch {
			k := fmt.Sprint(p)
			if seen[k] {
				t.Fatalf("step %d: duplicate candidate %v in batch", i, p)
			}
			seen[k] = true
			if _, observed := b.lookup(p); observed {
				t.Fatalf("step %d: batch proposed observed point %v", i, p)
			}
		}
		a.Observe(x, quadObj(x))
		b.Observe(batch[0], quadObj(batch[0]))
	}
}

// The sharded top-k scan must agree exactly with a serial scan, including
// the EI-then-lowest-index ordering, at any worker count.
func TestSuggestTopKShardingDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	o := New([]int{15, 15, 7}, Options{Rounding: true, Seed: 3}) // 4096 cells: parallel path
	for _, x := range [][]int{{0, 0, 0}, {15, 15, 7}, {7, 8, 3}, {2, 2, 2}} {
		o.Observe(x, quadObj(x[:2])*0.1+float64(x[2]))
	}
	g, err := o.Surrogate()
	if err != nil {
		t.Fatal(err)
	}
	bestY := o.bestY()
	for _, k := range []int{1, 3, 8} {
		o.syncCache(g)
		serial := o.scanShardTopK(bestY, 0, o.space, k)
		sharded := o.topKEI(g, bestY, k)
		if !reflect.DeepEqual(serial, sharded) {
			t.Fatalf("k=%d: sharded %v != serial %v", k, sharded, serial)
		}
		if sharded[0].idx != o.argmaxEI(g, bestY) {
			t.Fatalf("k=%d: top-1 %d != argmaxEI", k, sharded[0].idx)
		}
	}
}

// Before a surrogate exists SuggestTopK must consume the random stream
// exactly as Suggest would, so switching batching modes cannot perturb the
// seeded fallback trajectory.
func TestSuggestTopKRandomFallbackMatchesSuggest(t *testing.T) {
	a := New([]int{4, 4}, Options{Seed: 21})
	b := New([]int{4, 4}, Options{Seed: 21})
	for i := 0; i < 2; i++ { // below the two-observation surrogate threshold
		x, ok := a.Suggest()
		batch, okB := b.SuggestTopK(5)
		if !ok || !okB {
			t.Fatalf("fallback exhausted early")
		}
		if len(batch) != 1 || !reflect.DeepEqual(batch[0], x) {
			t.Fatalf("step %d: fallback batch %v != Suggest %v", i, batch, x)
		}
		a.Observe(x, float64(i))
		b.Observe(batch[0], float64(i))
	}
}
