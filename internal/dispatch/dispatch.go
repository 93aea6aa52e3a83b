// Package dispatch is the pluggable query-routing subsystem of the serving
// pool: it decides, for every arriving query, which instance serves it, where
// it waits, or whether it is shed. The paper's deployment hard-codes one rule
// — first-come-first-serve to the first available instance in pool preference
// order (Sec. 5.1) — which is exactly this package's default Policy; the
// other built-in policies (least-loaded, cost-weighted random, and the
// criticality-aware load shedder) open the routing dimension that production
// inference gateways differentiate on.
//
// The contract has three parts:
//
//   - State is the observable pool: per-instance busy flags and FIFO queues
//     plus one shared priority-FIFO queue. The simulator owns all mutations
//     except the Pop* calls a Policy makes from Next.
//   - Policy routes queries: Pick places an arrival (assign / enqueue /
//     shed), Next hands an instance that just went idle its next queued
//     query.
//   - Lifecycle is an optional extension for policies that need run-start or
//     per-completion hooks.
//
// Policies must be deterministic: any randomness comes from the *stats.RNG
// handed to Spec.New, which the simulator derives from the evaluation seed
// and the deployed configuration.
package dispatch

import (
	"fmt"

	"ribbon/internal/cloud"
	"ribbon/internal/stats"
	"ribbon/internal/workload"
)

// Action is what happens to a newly arrived query.
type Action int

const (
	// ActAssign starts the query immediately on Decision.Instance, which
	// must be idle.
	ActAssign Action = iota
	// ActEnqueueShared parks the query in the shared queue at
	// Decision.Rank (higher ranks pop first, FIFO within a rank).
	ActEnqueueShared
	// ActEnqueueInstance parks the query in Decision.Instance's own FIFO.
	ActEnqueueInstance
	// ActShed drops the query: it is never served and counts as shed.
	ActShed
)

// Decision is a Policy's routing verdict for one arrival.
type Decision struct {
	Action   Action
	Instance int // target of ActAssign / ActEnqueueInstance
	Rank     int // shared-queue priority for ActEnqueueShared, in [0, NumRanks)
}

// Assign runs the query now on the idle instance i.
func Assign(i int) Decision { return Decision{Action: ActAssign, Instance: i} }

// EnqueueShared parks the query in the shared queue at the given rank.
func EnqueueShared(rank int) Decision { return Decision{Action: ActEnqueueShared, Rank: rank} }

// EnqueueInstance parks the query in instance i's own queue.
func EnqueueInstance(i int) Decision { return Decision{Action: ActEnqueueInstance, Instance: i} }

// Shed drops the query.
func Shed() Decision { return Decision{Action: ActShed} }

// Policy routes queries through the pool. Implementations may keep internal
// state; the simulator constructs a fresh Policy per evaluation run (via
// Spec.New), so state never leaks between configurations.
type Policy interface {
	// Name identifies the policy in results and tables.
	Name() string
	// Pick places the arriving query. idx is the query's stream index —
	// the token that travels through queues back to Next.
	Pick(idx int, q workload.Query, s *State) Decision
	// Next selects the queued query that the just-idled instance inst
	// should serve, typically by popping one of s's queues; ok=false
	// leaves the instance idle.
	Next(inst int, s *State) (idx int, ok bool)
}

// Lifecycle is an optional Policy extension for per-run and per-completion
// hooks.
type Lifecycle interface {
	// RunStart is called once before the first arrival of a run.
	RunStart(s *State)
	// QueryDone is called after the query with stream index idx finished
	// on inst, before Next is consulted.
	QueryDone(idx, inst int, s *State)
}

// NumRanks is the number of shared-queue priority levels; workload
// criticality ranks fit exactly.
const NumRanks = 3

// fifo is an amortized-O(1) FIFO of stream indices.
type fifo struct {
	items []int
	head  int
}

func (f *fifo) len() int { return len(f.items) - f.head }

func (f *fifo) reset() { f.items = f.items[:0]; f.head = 0 }

func (f *fifo) push(idx int) { f.items = append(f.items, idx) }

func (f *fifo) pop() (int, bool) {
	if f.head >= len(f.items) {
		return 0, false
	}
	v := f.items[f.head]
	f.head++
	// Compact once the dead prefix dominates, bounding memory on long
	// backlogs without changing FIFO order.
	if f.head > 1024 && f.head*2 > len(f.items) {
		f.items = append(f.items[:0], f.items[f.head:]...)
		f.head = 0
	}
	return v, true
}

// State is the pool as a policy sees it: instance types, busy flags, one
// shared priority-FIFO queue, and one FIFO queue per instance. The simulator
// mutates it (SetBusy, Push*); policies read it and Pop* from Next.
type State struct {
	types   []cloud.InstanceType
	busy    []bool
	shared  [NumRanks]fifo
	perInst []fifo
	queued  int
}

// NewState builds the state for a deployed pool of instances in dispatch
// preference order.
func NewState(types []cloud.InstanceType) *State {
	s := &State{}
	s.Reset(types)
	return s
}

// Reset reinitializes the state for a fresh run over a (possibly different)
// deployed pool, reusing the previous run's allocations where capacities
// allow. The simulator's per-evaluation arena depends on it: Evaluate runs
// hundreds of times per search and must not rebuild queue storage each time.
func (s *State) Reset(types []cloud.InstanceType) {
	s.types = types
	n := len(types)
	if cap(s.busy) >= n {
		s.busy = s.busy[:n]
		for i := range s.busy {
			s.busy[i] = false
		}
	} else {
		s.busy = make([]bool, n)
	}
	if cap(s.perInst) >= n {
		s.perInst = s.perInst[:n]
	} else {
		old := s.perInst
		s.perInst = make([]fifo, n)
		copy(s.perInst, old)
	}
	for i := range s.perInst {
		s.perInst[i].reset()
	}
	for r := range s.shared {
		s.shared[r].reset()
	}
	s.queued = 0
}

// Instances returns the number of deployed instances.
func (s *State) Instances() int { return len(s.types) }

// Type returns the cloud instance type backing instance i.
func (s *State) Type(i int) cloud.InstanceType { return s.types[i] }

// Busy reports whether instance i is serving a query.
func (s *State) Busy(i int) bool { return s.busy[i] }

// SetBusy flips instance i's busy flag; the simulator calls it around
// service start and completion.
func (s *State) SetBusy(i int, b bool) { s.busy[i] = b }

// QueueLen returns the length of instance i's own queue.
func (s *State) QueueLen(i int) int { return s.perInst[i].len() }

// SharedLen returns the total length of the shared queue across ranks.
func (s *State) SharedLen() int {
	n := 0
	for r := range s.shared {
		n += s.shared[r].len()
	}
	return n
}

// TotalQueued returns the number of queries waiting anywhere in the pool —
// the queue-pressure signal used by load shedding and by the simulator's
// early-termination guard.
func (s *State) TotalQueued() int { return s.queued }

// Load returns instance i's backlog including the query in service: its own
// queue length plus one if busy. Join-shortest-queue minimizes this.
func (s *State) Load(i int) int {
	l := s.perInst[i].len()
	if s.busy[i] {
		l++
	}
	return l
}

// PushShared parks idx in the shared queue at rank (clamped to the valid
// range).
func (s *State) PushShared(idx, rank int) {
	if rank < 0 {
		rank = 0
	}
	if rank >= NumRanks {
		rank = NumRanks - 1
	}
	s.shared[rank].push(idx)
	s.queued++
}

// PushInstance parks idx in instance i's own queue.
func (s *State) PushInstance(i, idx int) {
	s.perInst[i].push(idx)
	s.queued++
}

// PopShared removes and returns the highest-rank, oldest queued query from
// the shared queue.
func (s *State) PopShared() (int, bool) {
	for r := NumRanks - 1; r >= 0; r-- {
		if idx, ok := s.shared[r].pop(); ok {
			s.queued--
			return idx, true
		}
	}
	return 0, false
}

// PopInstance removes and returns the oldest query in instance i's own queue.
func (s *State) PopInstance(i int) (int, bool) {
	idx, ok := s.perInst[i].pop()
	if ok {
		s.queued--
	}
	return idx, ok
}

// Kind names a built-in policy; it is the wire value of the control-plane
// API's dispatch.policy field.
type Kind string

// The built-in policy kinds.
const (
	// KindFCFS is the paper's rule: first idle instance in pool preference
	// order, one shared FIFO queue. The default.
	KindFCFS Kind = "fcfs"
	// KindLeastLoaded is join-shortest-queue over per-instance queues.
	KindLeastLoaded Kind = "least-loaded"
	// KindCostRandom assigns among idle instances at random, weighted by
	// inverse price, with a shared FIFO overflow queue.
	KindCostRandom Kind = "cost-random"
	// KindCriticality is preference-order assignment with a class-priority
	// shared queue that sheds Sheddable queries under queue pressure.
	KindCriticality Kind = "criticality"
)

// Kinds lists the built-in policy kinds in presentation order.
func Kinds() []Kind {
	return []Kind{KindFCFS, KindLeastLoaded, KindCostRandom, KindCriticality}
}

// DefaultShedQueueLength is the criticality policy's queue-pressure
// threshold when the spec does not set one: once this many queries wait
// anywhere in the pool, arriving Sheddable queries are dropped.
const DefaultShedQueueLength = 16

// Spec selects and parameterizes a policy. It is a plain value — comparable,
// serializable, and safe to copy — so it travels through ServiceConfig and
// the control-plane DTOs; the simulator turns it into a live Policy per
// evaluation run with New. The zero value is the paper's FCFS rule.
type Spec struct {
	// Kind picks a built-in policy; empty means KindFCFS.
	Kind Kind
	// ShedQueueLength is the criticality policy's shed threshold;
	// DefaultShedQueueLength when zero. Ignored by other kinds.
	ShedQueueLength int
	// Factory, when non-nil, overrides Kind with a custom policy
	// constructor (see docs/dispatch.md). The pool is in dispatch
	// preference order; rng is derived from the evaluation seed and the
	// deployed configuration.
	Factory func(pool []cloud.InstanceType, rng *stats.RNG) Policy
}

// Name returns the effective policy name for results and tables.
func (sp Spec) Name() string {
	if sp.Factory != nil {
		return "custom"
	}
	if sp.Kind == "" {
		return string(KindFCFS)
	}
	return string(sp.Kind)
}

// ShedAt returns the effective criticality shed threshold: ShedQueueLength,
// or DefaultShedQueueLength when it is zero.
func (sp Spec) ShedAt() int {
	if sp.ShedQueueLength == 0 {
		return DefaultShedQueueLength
	}
	return sp.ShedQueueLength
}

// Validate rejects unknown kinds and negative thresholds.
func (sp Spec) Validate() error {
	if sp.ShedQueueLength < 0 {
		return fmt.Errorf("dispatch: negative shed queue length %d", sp.ShedQueueLength)
	}
	if sp.Factory != nil {
		return nil
	}
	switch sp.Kind {
	case "", KindFCFS, KindLeastLoaded, KindCostRandom, KindCriticality:
		return nil
	}
	return fmt.Errorf("dispatch: unknown policy %q", sp.Kind)
}

// New builds a fresh Policy for one evaluation run over the deployed pool.
func (sp Spec) New(pool []cloud.InstanceType, rng *stats.RNG) (Policy, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	if sp.Factory != nil {
		return sp.Factory(pool, rng), nil
	}
	return newBuiltin(sp, rng), nil
}

// MustNew is New but panics on an invalid spec; for internal call sites that
// validated the spec at the API boundary.
func (sp Spec) MustNew(pool []cloud.InstanceType, rng *stats.RNG) Policy {
	p, err := sp.New(pool, rng)
	if err != nil {
		panic(err)
	}
	return p
}
