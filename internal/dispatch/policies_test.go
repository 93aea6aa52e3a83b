package dispatch

import (
	"math"
	"testing"

	"ribbon/internal/cloud"
	"ribbon/internal/stats"
	"ribbon/internal/workload"
)

// loadOf turns a load vector into the rules' load function.
func loadOf(loads []int) func(int) int { return func(i int) int { return loads[i] } }

func TestFirstIdle(t *testing.T) {
	for _, tc := range []struct {
		loads []int
		want  int
	}{
		{nil, -1},
		{[]int{0}, 0},
		{[]int{0, 0, 0}, 0},          // ties go to preference order
		{[]int{1, 3, 0, 0}, 2},       // first idle, not the cheapest or last
		{[]int{2, 1, 1}, -1},         // all busy
		{[]int{5, 0, 1, 0, 9, 0}, 1}, // interleaved
	} {
		if got := FirstIdle(len(tc.loads), loadOf(tc.loads)); got != tc.want {
			t.Errorf("FirstIdle(%v) = %d, want %d", tc.loads, got, tc.want)
		}
	}
}

func TestLeastLoaded(t *testing.T) {
	for _, tc := range []struct {
		loads []int
		want  int
	}{
		{nil, -1},
		{[]int{4}, 0},
		{[]int{2, 2, 2}, 0},    // full tie: preference order
		{[]int{3, 1, 2, 1}, 1}, // tie on the minimum: the earlier one
		{[]int{3, 2, 0, 0}, 2}, // an idle instance is the shortest queue
		{[]int{1, 0, 0}, 1},    // agrees with FirstIdle when one is idle
		{[]int{9, 8, 7}, 2},
	} {
		if got := LeastLoaded(len(tc.loads), loadOf(tc.loads)); got != tc.want {
			t.Errorf("LeastLoaded(%v) = %d, want %d", tc.loads, got, tc.want)
		}
	}
}

func TestCostRandom(t *testing.T) {
	weights := []float64{1, 2, 3, 4}
	weight := func(i int) float64 { return weights[i] }
	for _, tc := range []struct {
		name  string
		loads []int
		u     float64
		want  int
	}{
		// Idle weights 1,2,3,4 (total 10): u*10 falls in [0,1) → 0,
		// [1,3) → 1, [3,6) → 2, [6,10) → 3.
		{"low draw", []int{0, 0, 0, 0}, 0, 0},
		{"first boundary", []int{0, 0, 0, 0}, 0.1, 1},
		{"mid", []int{0, 0, 0, 0}, 0.45, 2},
		{"top", []int{0, 0, 0, 0}, 0.99, 3},
		// Busy instances carry no weight: idle weights 2,4 (total 6);
		// u*6 in [0,2) → 1, [2,6) → 3.
		{"busy skipped low", []int{1, 0, 2, 0}, 0.3, 1},
		{"busy skipped high", []int{1, 0, 2, 0}, 0.34, 3},
		// The largest draw still lands on an idle instance.
		{"top of range", []int{0, 3, 0, 1}, math.Nextafter(1, 0), 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := CostRandom(len(tc.loads), loadOf(tc.loads), weight, func() float64 { return tc.u })
			if got != tc.want {
				t.Errorf("CostRandom(%v, u=%g) = %d, want %d", tc.loads, tc.u, got, tc.want)
			}
		})
	}

	// Nothing idle: -1, and the random stream is left untouched.
	drew := false
	if got := CostRandom(3, loadOf([]int{1, 2, 1}), weight, func() float64 { drew = true; return 0 }); got != -1 || drew {
		t.Errorf("all busy: got %d (drew %v), want -1 without a draw", got, drew)
	}
	if got := CostRandom(0, loadOf(nil), weight, func() float64 { drew = true; return 0 }); got != -1 || drew {
		t.Errorf("empty pool: got %d (drew %v), want -1 without a draw", got, drew)
	}
}

func TestWeight(t *testing.T) {
	if w := Weight(0.5); w != 2 {
		t.Errorf("Weight(0.5) = %g, want 2", w)
	}
	if w := Weight(0); w != 1 {
		t.Errorf("zero price weight = %g, want 1", w)
	}
}

func TestPickIdleAndSheds(t *testing.T) {
	loads := []int{2, 0, 1, 0}
	weight := func(int) float64 { return 1 }
	top := func() float64 { return 0.99 }
	for _, kind := range Kinds() {
		want := 1 // first idle
		if kind == KindCostRandom {
			want = 3 // the high draw lands on the last idle instance
		}
		if got := (Spec{Kind: kind}).PickIdle(len(loads), loadOf(loads), weight, top); got != want {
			t.Errorf("%s: PickIdle = %d, want %d", kind, got, want)
		}
		if got := (Spec{Kind: kind}).PickIdle(2, loadOf([]int{1, 1}), weight, top); got != -1 {
			t.Errorf("%s: PickIdle on a busy pool = %d, want -1", kind, got)
		}
	}

	shed := workload.ClassSheddable.Rank()
	for _, tc := range []struct {
		spec   Spec
		rank   int
		queued int
		want   bool
	}{
		{Spec{Kind: KindCriticality}, shed, DefaultShedQueueLength, true},
		{Spec{Kind: KindCriticality}, shed, DefaultShedQueueLength - 1, false},
		{Spec{Kind: KindCriticality, ShedQueueLength: 2}, shed, 2, true},
		{Spec{Kind: KindCriticality, ShedQueueLength: 2}, workload.ClassStandard.Rank(), 100, false},
		{Spec{Kind: KindCriticality, ShedQueueLength: 2}, workload.ClassCritical.Rank(), 100, false},
		{Spec{Kind: KindFCFS}, shed, 100, false},
		{Spec{}, shed, 100, false},
		{Spec{Kind: KindLeastLoaded}, shed, 100, false},
		{Spec{Kind: KindCostRandom}, shed, 100, false},
	} {
		if got := tc.spec.Sheds(tc.rank, tc.queued); got != tc.want {
			t.Errorf("%+v.Sheds(rank %d, queued %d) = %v, want %v", tc.spec, tc.rank, tc.queued, got, tc.want)
		}
	}
}

// FuzzPicker checks the placement rules' contracts over arbitrary load
// vectors, kinds, weights and draws: every pick is in range, an idle pick
// really has load 0 and is -1 only when nothing is idle, FCFS takes the
// lowest idle index, least-loaded a minimum, ties to the lowest index, and
// the simulator's built-in Policy agrees with the rules.
func FuzzPicker(f *testing.F) {
	f.Add([]byte{0, 0, 0}, []byte{1, 2, 3}, uint8(0), uint64(0))
	f.Add([]byte{1, 0, 2, 0}, []byte{5, 1, 9, 2}, uint8(2), uint64(1)<<63)
	f.Add([]byte{3, 1, 2, 1}, []byte{0, 0, 0, 0}, uint8(1), uint64(math.MaxUint64))
	f.Add([]byte{}, []byte{}, uint8(3), uint64(7))
	f.Add([]byte{2, 2, 0}, []byte{255, 1, 0}, uint8(2), uint64(math.MaxUint64))
	f.Fuzz(func(t *testing.T, rawLoads, rawPrices []byte, kind uint8, bits uint64) {
		if len(rawLoads) > 64 {
			rawLoads = rawLoads[:64]
		}
		n := len(rawLoads)
		loads := make([]int, n)
		firstIdle, minLoad := -1, 0
		for i, b := range rawLoads {
			loads[i] = int(b % 4)
			if loads[i] == 0 && firstIdle < 0 {
				firstIdle = i
			}
			if i == 0 || loads[i] < minLoad {
				minLoad = loads[i]
			}
		}
		types := make([]cloud.InstanceType, n)
		for i := range types {
			if i < len(rawPrices) {
				types[i].PricePerHour = float64(rawPrices[i]) / 16
			}
		}
		weight := func(i int) float64 { return Weight(types[i].PricePerHour) }
		sp := Spec{Kind: Kinds()[int(kind)%len(Kinds())]}
		load := loadOf(loads)

		i := sp.PickIdle(n, load, weight, stats.NewRNG(bits, 0).Float64)
		if i < -1 || i >= n {
			t.Fatalf("%s: PickIdle(%v) = %d out of range", sp.Kind, loads, i)
		}
		if i >= 0 && loads[i] != 0 {
			t.Fatalf("%s: PickIdle(%v) = %d, which has load %d", sp.Kind, loads, i, loads[i])
		}
		if (i < 0) != (firstIdle < 0) {
			t.Fatalf("%s: PickIdle(%v) = %d, first idle %d", sp.Kind, loads, i, firstIdle)
		}
		if sp.Kind != KindCostRandom && i != firstIdle {
			t.Fatalf("%s: PickIdle(%v) = %d, want lowest idle %d", sp.Kind, loads, i, firstIdle)
		}

		ll := LeastLoaded(n, load)
		if n == 0 {
			if ll != -1 {
				t.Fatalf("LeastLoaded on an empty pool = %d", ll)
			}
			return
		}

		// The simulator's built-in Policy places the same way over a
		// State holding the same loads and an identically seeded stream.
		s := NewState(types)
		for j, l := range loads {
			s.SetBusy(j, l > 0)
			for k := 1; k < l; k++ {
				s.PushInstance(j, k)
			}
		}
		want := Assign(i)
		switch {
		case i >= 0:
		case sp.Kind == KindLeastLoaded:
			want = EnqueueInstance(ll)
		default:
			want = EnqueueShared(workload.ClassStandard.Rank())
			if sp.Kind != KindCriticality {
				want = EnqueueShared(0)
			}
		}
		if d := sp.MustNew(types, stats.NewRNG(bits, 0)).Pick(0, q(workload.ClassStandard), s); d != want {
			t.Fatalf("%s: built-in Pick over %v = %+v, want %+v", sp.Kind, loads, d, want)
		}
		if ll < 0 || ll >= n || loads[ll] != minLoad {
			t.Fatalf("LeastLoaded(%v) = %d, want a minimum (%d)", loads, ll, minLoad)
		}
		for j := 0; j < ll; j++ {
			if loads[j] == minLoad {
				t.Fatalf("LeastLoaded(%v) = %d, but %d ties earlier", loads, ll, j)
			}
		}
	})
}
