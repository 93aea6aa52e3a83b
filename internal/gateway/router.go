package gateway

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ribbon/internal/dispatch"
	"ribbon/internal/serving"
	"ribbon/internal/stats"
)

// pool is an immutable snapshot of the live instance set. The router loads
// it with one atomic pointer read per request; reconfigurations install a
// new snapshot and retire the instances that fell out of it — the hot path
// never takes a lock.
type pool struct {
	// instances is in dispatch preference order: the spec's type order,
	// then instance age within a type.
	instances []*instance
	// weights is each instance's inverse hourly price, for the
	// cost-random policy.
	weights []float64
	// config is the instance-count vector this snapshot realizes.
	config serving.Config
}

// route admits one request into the data plane: pick an instance under the
// configured dispatch policy, enqueue it on the request's criticality rank,
// fall back to any instance with queue space, shed or reject when the policy
// says so. It is safe for arbitrary concurrent callers.
func (g *Gateway) route(r *request) Outcome {
	g.m.recordRequest(r.rank)
	p := g.pool.Load()
	if p == nil || len(p.instances) == 0 {
		g.m.recordReject(r.rank)
		return OutcomeRejected
	}

	// The criticality policy sheds Sheddable arrivals under queue pressure
	// — same rule and same threshold semantics as dispatch.KindCriticality
	// in the simulator: total queued anywhere in the pool.
	if g.kind == dispatch.KindCriticality && r.rank == 0 &&
		g.totalQueued.Load() >= int64(g.shedAt) {
		g.m.recordShed(r.rank)
		return OutcomeShed
	}

	if g.place(p, r) {
		return OutcomeQueued
	}
	g.m.recordReject(r.rank)
	return OutcomeRejected
}

// place puts r on the policy-preferred instance, falling back to the first
// instance with queue space in preference order. False when every queue is
// full.
func (g *Gateway) place(p *pool, r *request) bool {
	t0 := time.Now()
	inst := g.pick(p, r)
	g.m.pickSeconds.Observe(time.Since(t0).Seconds())
	if inst != nil && g.enqueue(inst, r) {
		return true
	}
	for _, cand := range p.instances {
		if cand == inst {
			continue
		}
		if g.enqueue(cand, r) {
			return true
		}
	}
	return false
}

// pick chooses the policy-preferred instance from the snapshot. A nil return
// means the policy abstained and route's fallback scan decides.
func (g *Gateway) pick(p *pool, r *request) *instance {
	switch g.kind {
	case dispatch.KindLeastLoaded:
		return pickLeastLoaded(p)
	case dispatch.KindCostRandom:
		if inst := g.pickCostRandom(p); inst != nil {
			return inst
		}
		return pickLeastLoaded(p)
	default:
		// KindFCFS, and KindCriticality's placement half: first idle
		// instance in preference order; under full load fall back to the
		// least-loaded queue rather than the shared-FIFO head the
		// simulator uses (a live plane has no global queue to park in).
		for _, inst := range p.instances {
			if inst.load() == 0 {
				return inst
			}
		}
		return pickLeastLoaded(p)
	}
}

// pickLeastLoaded is join-shortest-queue over depth+inflight, preference
// order breaking ties.
func pickLeastLoaded(p *pool) *instance {
	var best *instance
	bestLoad := int64(0)
	for _, inst := range p.instances {
		l := inst.load()
		if best == nil || l < bestLoad {
			best, bestLoad = inst, l
		}
	}
	return best
}

// pickCostRandom draws among idle instances with probability proportional to
// inverse price; nil when nothing is idle.
func (g *Gateway) pickCostRandom(p *pool) *instance {
	idle := 0.0
	for i, inst := range p.instances {
		if inst.load() == 0 {
			idle += p.weights[i]
		}
	}
	if idle == 0 {
		return nil
	}
	rng := g.rngs.get(g.seed, "router")
	x := rng.Float64() * idle
	g.rngs.put(rng)
	for i, inst := range p.instances {
		if inst.load() != 0 {
			continue
		}
		x -= p.weights[i]
		if x <= 0 {
			return inst
		}
	}
	// Floating-point slack: last idle instance.
	for i := len(p.instances) - 1; i >= 0; i-- {
		if p.instances[i].load() == 0 {
			return p.instances[i]
		}
	}
	return nil
}

// enqueue places r on inst's rank queue, reporting false when the queue is
// full. After a successful send it re-checks the retire barrier: if the
// worker already passed its final drain, this goroutine rescues the request
// (and anything else stranded) back through the router — see retireDrain for
// why the two-sided check is race-free.
func (g *Gateway) enqueue(inst *instance, r *request) bool {
	// The queue span opens before the channel send: once r is on the queue a
	// worker may own it, so its fields cannot be written afterwards.
	if r.sampled {
		r.tAdmitted = g.nowMs()
	}
	inst.depth.Add(1)
	g.totalQueued.Add(1)
	select {
	case inst.queues[r.rank] <- r:
	default:
		g.took(inst) // undo: queue full
		return false
	}
	if inst.exited.Load() {
		g.rescue(inst)
	}
	return true
}

// errRescueFailed reports a request displaced by a reconfiguration that
// could not be re-placed anywhere on the new pool.
var errRescueFailed = errors.New("gateway: request displaced by reconfiguration could not be re-placed")

// rescue drains a retired instance's queues and re-places every stranded
// request on the live pool. These requests were already admitted, so the
// shed/reject admission logic does not re-run; a request that cannot be
// re-placed fails loudly rather than disappearing.
func (g *Gateway) rescue(inst *instance) {
	for {
		r := g.take(inst)
		if r == nil {
			return
		}
		if p := g.pool.Load(); p != nil && g.place(p, r) {
			continue
		}
		g.m.failed.Inc()
		g.respond(r, Response{Err: errRescueFailed, TraceSeq: r.seq, TraceID: r.id})
	}
}

// rngLease hands RNGs to concurrent users. A leased RNG goes back with put;
// a miss derives a fresh independent stream ("gateway", label, n) from the
// seed, so concurrent users never share one and none allocates once warm.
type rngLease struct {
	pool sync.Pool
	next atomic.Uint64
}

// get leases an RNG, deriving a new stream under seed and label on a miss.
func (l *rngLease) get(seed uint64, label string) *stats.RNG {
	if r, _ := l.pool.Get().(*stats.RNG); r != nil {
		return r
	}
	n := l.next.Add(1)
	return stats.Derive(seed, "gateway", label, fmt.Sprintf("%d", n))
}

// put returns a leased RNG.
func (l *rngLease) put(r *stats.RNG) { l.pool.Put(r) }
