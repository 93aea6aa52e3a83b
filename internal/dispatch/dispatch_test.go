package dispatch

import (
	"testing"

	"ribbon/internal/cloud"
	"ribbon/internal/stats"
	"ribbon/internal/workload"
)

func pool(t *testing.T, fams ...string) []cloud.InstanceType {
	t.Helper()
	out := make([]cloud.InstanceType, len(fams))
	for i, f := range fams {
		it, err := cloud.Lookup(f)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = it
	}
	return out
}

func q(class workload.Criticality) workload.Query {
	return workload.Query{Batch: 1, Class: class}
}

func TestSpecValidate(t *testing.T) {
	for _, sp := range []Spec{
		{},
		{Kind: KindFCFS},
		{Kind: KindLeastLoaded},
		{Kind: KindCostRandom},
		{Kind: KindCriticality, ShedQueueLength: 4},
		{Factory: func([]cloud.InstanceType, *stats.RNG) Policy { return nil }},
	} {
		if err := sp.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v", sp, err)
		}
	}
	if err := (Spec{Kind: "nope"}).Validate(); err == nil {
		t.Errorf("accepted unknown kind")
	}
	if err := (Spec{ShedQueueLength: -1}).Validate(); err == nil {
		t.Errorf("accepted negative shed threshold")
	}
	if _, err := (Spec{Kind: "nope"}).New(nil, nil); err == nil {
		t.Errorf("New accepted unknown kind")
	}
}

func TestSpecName(t *testing.T) {
	if n := (Spec{}).Name(); n != "fcfs" {
		t.Errorf("zero spec name = %q", n)
	}
	if n := (Spec{Kind: KindCriticality}).Name(); n != "criticality" {
		t.Errorf("name = %q", n)
	}
	sp := Spec{Factory: func([]cloud.InstanceType, *stats.RNG) Policy { return nil }}
	if n := sp.Name(); n != "custom" {
		t.Errorf("factory name = %q", n)
	}
}

func TestFCFSPrefersPoolOrder(t *testing.T) {
	types := pool(t, "g4dn", "c5", "t3")
	s := NewState(types)
	p := Spec{}.MustNew(types, nil)

	d := p.Pick(0, q(""), s)
	if d.Action != ActAssign || d.Instance != 0 {
		t.Fatalf("first arrival must assign instance 0, got %+v", d)
	}
	s.SetBusy(0, true)
	d = p.Pick(1, q(""), s)
	if d.Action != ActAssign || d.Instance != 1 {
		t.Fatalf("second arrival must assign instance 1, got %+v", d)
	}
	s.SetBusy(1, true)
	s.SetBusy(2, true)
	d = p.Pick(2, q(""), s)
	if d.Action != ActEnqueueShared || d.Rank != 0 {
		t.Fatalf("saturated pool must enqueue shared at rank 0, got %+v", d)
	}
}

func TestFCFSNextIsSharedFIFO(t *testing.T) {
	types := pool(t, "g4dn", "t3")
	s := NewState(types)
	p := Spec{Kind: KindFCFS}.MustNew(types, nil)
	s.PushShared(7, 0)
	s.PushShared(8, 0)
	if idx, ok := p.Next(1, s); !ok || idx != 7 {
		t.Fatalf("Next = %d,%v want 7,true", idx, ok)
	}
	if idx, ok := p.Next(0, s); !ok || idx != 8 {
		t.Fatalf("Next = %d,%v want 8,true", idx, ok)
	}
	if _, ok := p.Next(0, s); ok {
		t.Fatalf("empty queue must leave the instance idle")
	}
}

func TestLeastLoadedJoinsShortestQueue(t *testing.T) {
	types := pool(t, "g4dn", "c5")
	s := NewState(types)
	p := Spec{Kind: KindLeastLoaded}.MustNew(types, nil)

	// Both idle: tie broken by pool order.
	if d := p.Pick(0, q(""), s); d.Action != ActAssign || d.Instance != 0 {
		t.Fatalf("tie must assign instance 0, got %+v", d)
	}
	s.SetBusy(0, true)
	if d := p.Pick(1, q(""), s); d.Action != ActAssign || d.Instance != 1 {
		t.Fatalf("idle instance 1 must win, got %+v", d)
	}
	s.SetBusy(1, true)
	// Both busy, equal load: enqueue at 0; then 0 is longer, enqueue at 1.
	d := p.Pick(2, q(""), s)
	if d.Action != ActEnqueueInstance || d.Instance != 0 {
		t.Fatalf("equal backlog must queue at instance 0, got %+v", d)
	}
	s.PushInstance(0, 2)
	d = p.Pick(3, q(""), s)
	if d.Action != ActEnqueueInstance || d.Instance != 1 {
		t.Fatalf("instance 1 has the shorter queue, got %+v", d)
	}
	s.PushInstance(1, 3)

	// Each instance drains only its own queue.
	if idx, ok := p.Next(1, s); !ok || idx != 3 {
		t.Fatalf("Next(1) = %d,%v want 3,true", idx, ok)
	}
	if idx, ok := p.Next(0, s); !ok || idx != 2 {
		t.Fatalf("Next(0) = %d,%v want 2,true", idx, ok)
	}
}

func TestCostRandomFavorsCheapInstances(t *testing.T) {
	// t3 ($0.1664/h) vs g4dn ($0.526/h): inverse-price weighting must pick
	// the cheap instance roughly 0.526/(0.526+0.1664) ~ 76% of the time.
	types := pool(t, "g4dn", "t3")
	s := NewState(types)
	p := Spec{Kind: KindCostRandom}.MustNew(types, stats.Derive(1, "test", "cost-random"))
	counts := map[int]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		d := p.Pick(i, q(""), s)
		if d.Action != ActAssign {
			t.Fatalf("idle pool must assign, got %+v", d)
		}
		counts[d.Instance]++
	}
	frac := float64(counts[1]) / n
	if frac < 0.70 || frac > 0.82 {
		t.Fatalf("cheap-instance fraction %.3f outside [0.70, 0.82]", frac)
	}

	// Busy instances never picked; saturated pool enqueues shared.
	s.SetBusy(1, true)
	for i := 0; i < 100; i++ {
		if d := p.Pick(i, q(""), s); d.Action != ActAssign || d.Instance != 0 {
			t.Fatalf("only instance 0 is idle, got %+v", d)
		}
	}
	s.SetBusy(0, true)
	if d := p.Pick(0, q(""), s); d.Action != ActEnqueueShared {
		t.Fatalf("saturated pool must enqueue, got %+v", d)
	}
}

func TestCriticalityPriorityAndShedding(t *testing.T) {
	types := pool(t, "g4dn", "t3")
	s := NewState(types)
	p := Spec{Kind: KindCriticality, ShedQueueLength: 2}.MustNew(types, nil)

	// Idle pool: assignment follows preference order regardless of class.
	if d := p.Pick(0, q(workload.ClassSheddable), s); d.Action != ActAssign || d.Instance != 0 {
		t.Fatalf("idle pool must assign, got %+v", d)
	}
	s.SetBusy(0, true)
	s.SetBusy(1, true)

	// Saturated pool: classes enqueue at their rank.
	for i, tc := range []struct {
		class workload.Criticality
		rank  int
	}{
		{workload.ClassSheddable, 0},
		{"", 1}, // legacy empty class is Standard
		{workload.ClassCritical, 2},
	} {
		d := p.Pick(i, q(tc.class), s)
		if d.Action != ActEnqueueShared || d.Rank != tc.rank {
			t.Fatalf("class %q: got %+v, want shared rank %d", tc.class, d, tc.rank)
		}
		s.PushShared(i, d.Rank)
	}

	// Backlog is now 3 >= threshold 2: sheddable arrivals are dropped,
	// critical and standard still queue.
	if d := p.Pick(9, q(workload.ClassSheddable), s); d.Action != ActShed {
		t.Fatalf("sheddable under pressure must shed, got %+v", d)
	}
	if d := p.Pick(10, q(workload.ClassStandard), s); d.Action != ActEnqueueShared {
		t.Fatalf("standard must still enqueue, got %+v", d)
	}

	// Drain order is class priority, FIFO within class: critical(2),
	// standard(1), sheddable(0).
	for _, want := range []int{2, 1, 0} {
		idx, ok := p.Next(0, s)
		if !ok || idx != want {
			t.Fatalf("Next = %d,%v want %d,true", idx, ok, want)
		}
	}
}

func TestStateAccounting(t *testing.T) {
	types := pool(t, "g4dn", "t3")
	s := NewState(types)
	if s.Instances() != 2 || s.TotalQueued() != 0 {
		t.Fatalf("fresh state: %d instances, %d queued", s.Instances(), s.TotalQueued())
	}
	if s.Type(0).Family != "g4dn" || s.Type(1).Family != "t3" {
		t.Fatalf("types not preserved in order")
	}
	s.PushShared(1, 5) // rank clamped to NumRanks-1
	s.PushShared(2, -3)
	s.PushInstance(0, 3)
	if s.TotalQueued() != 3 || s.SharedLen() != 2 || s.QueueLen(0) != 1 {
		t.Fatalf("queue accounting: total=%d shared=%d q0=%d", s.TotalQueued(), s.SharedLen(), s.QueueLen(0))
	}
	s.SetBusy(0, true)
	if s.Load(0) != 2 || s.Load(1) != 0 {
		t.Fatalf("Load = %d,%d", s.Load(0), s.Load(1))
	}
	if idx, ok := s.PopShared(); !ok || idx != 1 {
		t.Fatalf("clamped high rank must pop first, got %d,%v", idx, ok)
	}
	if idx, ok := s.PopInstance(0); !ok || idx != 3 {
		t.Fatalf("PopInstance = %d,%v", idx, ok)
	}
	if s.TotalQueued() != 1 {
		t.Fatalf("TotalQueued = %d after pops", s.TotalQueued())
	}
}

func TestFIFOCompaction(t *testing.T) {
	var f fifo
	const n = 5000
	for i := 0; i < n; i++ {
		f.push(i)
	}
	for i := 0; i < n; i++ {
		v, ok := f.pop()
		if !ok || v != i {
			t.Fatalf("pop %d = %d,%v", i, v, ok)
		}
	}
	if _, ok := f.pop(); ok {
		t.Fatalf("drained fifo must be empty")
	}
	if len(f.items) > n/2 {
		t.Fatalf("compaction never ran: %d items retained", len(f.items))
	}
}
