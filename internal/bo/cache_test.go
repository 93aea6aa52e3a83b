package bo

import (
	"math"
	"runtime"
	"testing"
)

// The sharded scans read and extend the cell cache from several goroutines
// at once. On a 4096-cell grid (the parallel path) with a constraint, every
// SuggestTopK head must equal an uncached serial argmax over GP.Predict,
// across re-tunes, incremental extensions and liar chains rolled back in
// between. It runs under `go test -race`, which also proves the shards
// touch disjoint cache state.
func TestShardedScanMatchesPredict(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	bounds := []int{15, 15, 15}
	o := New(bounds, Options{Rounding: true, Seed: 8, Incremental: true})
	allowed := func(x []int) bool { return x[0]+x[1]+x[2] <= 36 }
	o.SetConstraint(allowed)
	obj := func(x []int) float64 {
		return -0.1*float64((x[0]-9)*(x[0]-9)+(x[1]-4)*(x[1]-4)) - 0.05*float64(x[2])
	}
	for _, x := range [][]int{{0, 0, 0}, {12, 12, 12}, {6, 7, 3}} {
		o.Observe(x, obj(x))
	}
	x := make([]int, len(bounds))
	xf := make([]float64, len(bounds))
	for step := 0; step < 14; step++ {
		g, err := o.Surrogate()
		if err != nil {
			t.Fatal(err)
		}
		bestY := o.bestY()
		wantEI, want := math.Inf(-1), -1
		for idx := 0; idx < o.space; idx++ {
			if o.state[idx] != candOpen || !allowed(o.decode(idx, x)) {
				continue
			}
			for i, v := range x {
				xf[i] = float64(v)
			}
			mean, variance := g.Predict(xf)
			if ei := eiValue(mean, variance, bestY, o.opts.Xi); ei > wantEI {
				wantEI, want = ei, idx
			}
		}
		batch, ok := o.SuggestTopK(3)
		if !ok {
			t.Fatalf("step %d: grid exhausted", step)
		}
		if got, _ := o.gridIndex(batch[0]); got != want {
			t.Fatalf("step %d: sharded head %v (cell %d), uncached argmax cell %d", step, batch[0], got, want)
		}
		if step%3 == 1 {
			o.Speculate(batch[0], 3, nil)
		}
		o.Observe(batch[0], obj(batch[0]))
	}
}

// The alloc guard for the acquisition hot path: once the cache is warm, an
// Observe plus a SuggestTopK on a Table 3-size grid allocates a small
// constant number of times — the same on a 495-cell as on a 1188-cell grid,
// because a scan's per-cell work reuses cached storage.
func TestWarmSuggestTopKAllocs(t *testing.T) {
	measure := func(bounds []int) float64 {
		o := New(bounds, Options{Rounding: true, Seed: 6, Incremental: true})
		cfgs := freshConfigs(bounds, 40)
		next := 0
		// Past the dense re-tunes and the n=12 and n=18 boundaries, into
		// the 19..26 window where every step extends the surrogate.
		for ; next < 19; next++ {
			o.Observe(cfgs[next], float64(next%5))
			if next >= 1 {
				if _, ok := o.SuggestTopK(4); !ok {
					t.Fatal("grid exhausted")
				}
			}
		}
		allocs := testing.AllocsPerRun(3, func() {
			o.Observe(cfgs[next], float64(next%5))
			next++
			if _, ok := o.SuggestTopK(4); !ok {
				t.Fatal("grid exhausted")
			}
		})
		if next > 27 {
			t.Fatalf("test setup: crossed the n=27 re-tune boundary (n=%d)", next)
		}
		return allocs
	}
	small, large := measure([]int{8, 10, 4}), measure([]int{10, 11, 8})
	if small != large {
		t.Fatalf("warm Observe+SuggestTopK: %.1f allocs on 495 cells, %.1f on 1188", small, large)
	}
	t.Logf("warm Observe+SuggestTopK: %.1f allocs", large)
	if large > 40 {
		t.Fatalf("warm Observe+SuggestTopK allocated %.1f times, want <= 40", large)
	}
}

// Speculate's lies come from the cell cache; each must be the bit-exact
// posterior mean GP.Predict gives on the chain built so far.
func TestSpeculateLiesMatchPredict(t *testing.T) {
	o := New([]int{5, 12}, Options{Rounding: true, Seed: 4, Incremental: true})
	for _, x := range [][]int{{0, 0}, {5, 12}, {2, 6}, {4, 3}} {
		o.Observe(x, quadObj(x))
	}
	x, ok := o.Suggest()
	if !ok {
		t.Fatal("grid exhausted")
	}
	g, err := o.Surrogate()
	if err != nil {
		t.Fatal(err)
	}
	cur, lies := x, 0
	o.Speculate(x, 3, func(nxt []int) {
		// emit runs while the chain's lies are still recorded.
		want, _ := g.Predict(toFloat(cur))
		if got := o.ys[len(o.ys)-1]; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("lie %d at %v = %v, GP.Predict mean %v", lies, cur, got, want)
		}
		if g, err = g.Extend(toFloat(cur), want); err != nil {
			t.Fatal(err)
		}
		cur = nxt
		lies++
	})
	if lies != 3 {
		t.Fatalf("Speculate emitted %d proposals, want 3", lies)
	}
}
