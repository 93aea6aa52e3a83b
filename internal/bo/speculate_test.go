package bo

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
)

func quadObj(x []int) float64 {
	return -float64((x[0]-3)*(x[0]-3) + (x[1]-7)*(x[1]-7))
}

func seeded(t *testing.T, seed uint64) *Optimizer {
	t.Helper()
	o := New([]int{5, 12}, Options{Rounding: true, Seed: seed})
	for _, x := range [][]int{{0, 0}, {5, 12}, {2, 6}} {
		o.Observe(x, quadObj(x))
	}
	return o
}

// Speculate must be invisible: every observable output of the optimizer —
// the suggestion stream, the recorded observations, the random fallback —
// is identical whether or not speculation ran in between. The parallel
// search's bit-identical guarantee reduces to this.
func TestSpeculateRollsBackCompletely(t *testing.T) {
	clean := seeded(t, 9)
	spec := seeded(t, 9)

	x1, ok1 := spec.Suggest()
	if !ok1 {
		t.Fatalf("no suggestion")
	}
	batch := spec.Speculate(x1, 4, nil)
	if len(batch) == 0 {
		t.Fatalf("no speculation from a fitted surrogate")
	}
	if got := len(spec.Observations()); got != 3 {
		t.Fatalf("speculation leaked %d observations", got-3)
	}

	// Drive both optimizers through ten more steps and require identical
	// trajectories (Suggest consults state + RNG; any leak diverges).
	for i := 0; i < 10; i++ {
		a, okA := clean.Suggest()
		b, okB := spec.Suggest()
		if okA != okB || !reflect.DeepEqual(a, b) {
			t.Fatalf("step %d diverged after speculation: %v vs %v", i, a, b)
		}
		if !okA {
			break
		}
		clean.Observe(a, quadObj(a))
		spec.Observe(b, quadObj(b))
		spec.Speculate(b, 3, nil) // keep speculating; must stay invisible
	}
}

// The speculated candidates are open grid points distinct from the pending
// suggestion and from each other.
func TestSpeculateProposesFreshPoints(t *testing.T) {
	o := seeded(t, 4)
	x1, _ := o.Suggest()
	seen := map[string]bool{keyOf(x1): true}
	for _, x := range [][]int{{0, 0}, {5, 12}, {2, 6}} {
		seen[keyOf(x)] = true
	}
	for _, c := range o.Speculate(x1, 5, nil) {
		k := keyOf(c)
		if seen[k] {
			t.Fatalf("speculation repeated %v", c)
		}
		seen[k] = true
	}
}

// Speculation before a surrogate exists must not consume the random stream
// the serial fallback depends on.
func TestSpeculateWithoutSurrogateIsInert(t *testing.T) {
	a := New([]int{3, 3}, Options{Seed: 6})
	b := New([]int{3, 3}, Options{Seed: 6})
	if got := b.Speculate([]int{1, 1}, 4, nil); got != nil {
		t.Fatalf("speculation without surrogate returned %v", got)
	}
	xa, _ := a.Suggest()
	xb, _ := b.Suggest()
	if !reflect.DeepEqual(xa, xb) {
		t.Fatalf("speculation consumed the RNG: %v vs %v", xa, xb)
	}
}

// Emit must stream the same candidates the call returns, in order.
func TestSpeculateEmitStreams(t *testing.T) {
	o := seeded(t, 21)
	x1, _ := o.Suggest()
	var streamed [][]int
	got := o.Speculate(x1, 3, func(x []int) {
		streamed = append(streamed, append([]int(nil), x...))
	})
	if !reflect.DeepEqual(streamed, got) {
		t.Fatalf("emit saw %v, return %v", streamed, got)
	}
}

// Coordinates beyond 16 bits must not collide: the old keyOf truncated each
// coordinate to two bytes, silently aliasing 65536 with 0.
func TestKeyOfNoTruncationCollision(t *testing.T) {
	a := []int{65536, 1}
	b := []int{0, 1}
	if keyOf(a) == keyOf(b) {
		t.Fatalf("keyOf collides for %v and %v", a, b)
	}
	if keyOf([]int{1 << 40}) == keyOf([]int{0}) {
		t.Fatalf("keyOf collides beyond 32 bits")
	}
}

// Re-observation replaces in O(1) via the index — and stays correct for
// bounds far beyond the old 16-bit key range.
func TestObserveLargeBoundsReplaces(t *testing.T) {
	o := New([]int{1 << 20}, Options{})
	o.Observe([]int{70000}, 0.5)
	o.Observe([]int{70000 + (1 << 16)}, 0.7) // would collide under 16-bit keys
	if got := len(o.Observations()); got != 2 {
		t.Fatalf("collision: %d observations, want 2", got)
	}
	o.Observe([]int{70000}, 0.9)
	if got := len(o.Observations()); got != 2 {
		t.Fatalf("re-observation appended: %d observations", got)
	}
	best, _ := o.Best()
	if best.Y != 0.9 {
		t.Fatalf("re-observation did not replace: best %v", best)
	}
}

// Off-grid observations (outside the declared bounds) are tolerated and
// keyed without collisions, as before.
func TestObserveOffGrid(t *testing.T) {
	o := New([]int{5, 5}, Options{})
	o.Observe([]int{9, 9}, 0.1)
	o.Observe([]int{9, 9}, 0.4)
	if got := len(o.Observations()); got != 1 {
		t.Fatalf("off-grid re-observation appended: %d", got)
	}
	best, _ := o.Best()
	if best.Y != 0.4 || best.X[0] != 9 {
		t.Fatalf("off-grid best %v", best)
	}
}

// The alloc-regression guard for the acquisition hot path: one
// Observe+Suggest cycle (surrogate refit plus full EI scan) must stay well
// under half the pre-rebuild baseline (~1.8k allocs per Suggest alone).
func TestSuggestAllocs(t *testing.T) {
	o := seeded(t, 2)
	v := 0
	allocs := testing.AllocsPerRun(10, func() {
		x, ok := o.Suggest()
		if !ok {
			t.Fatalf("grid exhausted mid-measurement")
		}
		v++
		o.Observe(x, quadObj(x)-float64(v)*0.001)
	})
	if allocs > 900 {
		t.Fatalf("Observe+Suggest allocated %.0f times per cycle, want <= 900", allocs)
	}
}

// Grid-size guard: New must refuse grids it cannot index.
func TestNewRejectsHugeGrid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for an unindexable grid")
		}
	}()
	New([]int{1 << 20, 1 << 20}, Options{})
}

// Parallel and serial EI scans must agree exactly, including tie-breaking.
func TestArgmaxShardingDeterministic(t *testing.T) {
	// Force the sharded path even on single-core runners.
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
	o.syncCache(g)
	_, serialIdx := o.scanShard(bestY, 0, o.space)
	parIdx := o.argmaxEI(g, bestY)
	if serialIdx != parIdx {
		t.Fatalf("sharded argmax %d != serial %d", parIdx, serialIdx)
	}
	if math.IsNaN(float64(parIdx)) || parIdx < 0 {
		t.Fatalf("no argmax found")
	}
	// And the public Suggest sees the same point.
	x, ok := o.Suggest()
	if !ok || fmt.Sprint(x) != fmt.Sprint(o.decode(parIdx, make([]int, 3))) {
		t.Fatalf("Suggest %v != argmax cell %d", x, parIdx)
	}
}
