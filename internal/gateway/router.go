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
	// config is the instance-count vector this snapshot realizes.
	config serving.Config
}

// route admits one request into the data plane: pick an instance with the
// dispatch rules, shed when the policy says so, enqueue on the request's
// criticality rank, and fall back to any instance with queue space. It is
// safe for arbitrary concurrent callers.
func (g *Gateway) route(r *request) Outcome {
	g.m.recordRequest(r.rank)
	p := g.pool.Load()
	if p == nil || len(p.instances) == 0 {
		g.m.recordReject(r.rank)
		return OutcomeRejected
	}
	inst, idle := g.pick(p)
	// The shed test runs only here, at admission: requeued and rescued
	// requests were already admitted.
	if !idle && g.dispatch.Sheds(r.rank, int(g.totalQueued.Load())) {
		g.m.recordShed(r.rank)
		return OutcomeShed
	}
	if g.place(p, inst, r) {
		return OutcomeQueued
	}
	g.m.recordReject(r.rank)
	return OutcomeRejected
}

// pick chooses an instance from the snapshot with the dispatch package's
// placement rules: the idle instance the policy starts an arrival on, else
// the least-loaded queue, since the live plane has no shared queue to park
// in. idle reports which; nil for an empty pool.
func (g *Gateway) pick(p *pool) (inst *instance, idle bool) {
	t0 := time.Now()
	n := len(p.instances)
	load := func(i int) int { return int(p.instances[i].load()) }
	weight := func(i int) float64 { return dispatch.Weight(p.instances[i].typ.PricePerHour) }
	i := g.dispatch.PickIdle(n, load, weight, g.draw)
	idle = i >= 0
	if !idle {
		i = dispatch.LeastLoaded(n, load)
	}
	g.m.pickSeconds.Observe(time.Since(t0).Seconds())
	if i < 0 {
		return nil, false
	}
	return p.instances[i], idle
}

// draw is one uniform sample in [0, 1) from a leased router RNG.
func (g *Gateway) draw() float64 {
	rng := g.rngs.get(g.seed, "router")
	x := rng.Float64()
	g.rngs.put(rng)
	return x
}

// reroute re-places an admitted request on the live pool, for the rescue
// and requeue paths; it never sheds. False when every queue is full.
func (g *Gateway) reroute(r *request) bool {
	p := g.pool.Load()
	if p == nil {
		return false
	}
	inst, _ := g.pick(p)
	return g.place(p, inst, r)
}

// place puts r on inst, falling back to the first instance with queue space
// in preference order. False when every queue is full.
func (g *Gateway) place(p *pool, inst *instance, r *request) bool {
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
		if g.reroute(r) {
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
