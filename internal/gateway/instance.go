package gateway

import (
	"math"
	"sync/atomic"
	"time"

	"ribbon/internal/cloud"
	"ribbon/internal/dispatch"
	"ribbon/internal/obs"
)

// request is one admitted inference request traveling through the data
// plane. Requests are pooled (sync.Pool) — the dispatch hot path allocates
// nothing per request.
type request struct {
	arrivalMs float64 // scheduled stream-time arrival (latency epoch)
	batch     int     // samples fused into this request
	rank      int     // criticality rank, [0, dispatch.NumRanks)
	payload   []byte  // request body; nil for payload-free floods
	wait      bool    // a waiter is blocked on done
	attempts  int     // backend-failure re-queues consumed so far
	done      chan Response

	// Tracing. seq is the ingress ordinal (always assigned when tracing is
	// on); the span stamps are stream-time and only taken when sampled, so
	// unsampled requests skip the clock reads entirely.
	seq       uint64
	id        string // adopted X-Request-Id, "" otherwise
	sampled   bool
	tAdmit    float64 // admit span start (ingress)
	tAdmitted float64 // enqueued: admit ends, queue span starts
	tTaken    float64 // worker pulled it off the queue
}

// response is the completion record delivered to a waiting caller.
type Response struct {
	// LatencyMs is stream time from scheduled arrival to completion;
	// ServiceMs the modeled service time of the batch it rode in.
	LatencyMs float64
	ServiceMs float64
	// Instance names the serving instance type.
	Instance string
	// Body is the backend's answer (ProxyBackend only).
	Body []byte
	// Err is the backend failure, if any.
	Err error
	// TraceSeq is the request's ingress ordinal (0 when tracing is off) and
	// TraceID the adopted X-Request-Id, if one was supplied. Render a
	// user-facing ID with obs.TraceID(TraceSeq, TraceID).
	TraceSeq uint64
	TraceID  string
}

// instance is one live pool member: bounded per-rank queues and a worker
// goroutine that batches and serves them. The queues are the only handoff —
// the router never blocks on an instance.
type instance struct {
	id   int
	slot int // index into the pool spec's type vector
	typ  cloud.InstanceType
	name string // typ.Name(), precomputed: completions must not allocate

	// queues is one bounded FIFO per criticality rank; the worker serves
	// higher ranks first, which is what gives critical traffic priority
	// under backlog without any shared lock.
	queues [dispatch.NumRanks]chan *request

	depth    atomic.Int64  // queued, not yet taken by the worker
	inflight atomic.Int64  // taken, being served
	served   atomic.Uint64 // completed on this instance
	retiring atomic.Bool   // drain-then-retire initiated
	exited   atomic.Bool   // worker past its final drain barrier

	// Chaos straggler state (math.Float64bits): while stream time is before
	// slowUntilBits, every batch this instance serves stretches by
	// slowFactorBits. Zero factor means healthy; the worker reads both with
	// plain atomic loads, so injection never blocks serving.
	slowFactorBits atomic.Uint64
	slowUntilBits  atomic.Uint64

	warmupMs float64 // one-off boot charge before the worker serves

	stop chan struct{} // closed by applyConfig to retire
	done chan struct{} // closed by the worker on exit
}

func newInstance(id, slot int, typ cloud.InstanceType, queueDepth int, warmupMs float64) *instance {
	inst := &instance{
		id:       id,
		slot:     slot,
		typ:      typ,
		name:     typ.Name(),
		warmupMs: warmupMs,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	for r := range inst.queues {
		inst.queues[r] = make(chan *request, queueDepth)
	}
	return inst
}

// setSlowdown marks inst a straggler: batches stretch by factor until
// untilMs of stream time. A later event overwrites an earlier one.
func (inst *instance) setSlowdown(factor, untilMs float64) {
	inst.slowUntilBits.Store(math.Float64bits(untilMs))
	inst.slowFactorBits.Store(math.Float64bits(factor))
}

// slowdown returns the active stretch factor at nowMs, 1 when healthy or
// the window has lapsed.
func (inst *instance) slowdown(nowMs float64) float64 {
	f := math.Float64frombits(inst.slowFactorBits.Load())
	if f <= 1 {
		return 1
	}
	if nowMs >= math.Float64frombits(inst.slowUntilBits.Load()) {
		return 1
	}
	return f
}

// load is the queue-depth-plus-inflight figure the routing policies rank by.
func (inst *instance) load() int64 {
	return inst.depth.Load() + inst.inflight.Load()
}

// took settles the queue counters after a request leaves inst's queues, by
// any path (worker take, blocking receive, router rescue).
func (g *Gateway) took(inst *instance) {
	inst.depth.Add(-1)
	g.totalQueued.Add(-1)
}

// tookReq settles the counters for a request received by a blocking select
// and stamps its queue-exit time when it is being traced.
func (g *Gateway) tookReq(inst *instance, r *request) {
	g.took(inst)
	if r.sampled {
		r.tTaken = g.nowMs()
	}
}

// take pops the highest-rank queued request from inst without blocking, nil
// when all queues are empty.
func (g *Gateway) take(inst *instance) *request {
	for r := dispatch.NumRanks - 1; r >= 0; r-- {
		select {
		case req := <-inst.queues[r]:
			g.tookReq(inst, req)
			return req
		default:
		}
	}
	return nil
}

// worker is the instance's serving loop: collect a batch (bounded by
// MaxBatch and the flush timeout), hand it to the backend, record the
// completions, repeat. On retire it drains every queued request before
// exiting — admitted work is never dropped by a reconfiguration.
func (g *Gateway) worker(inst *instance) {
	defer close(inst.done)

	// One reusable flush timer per worker; Reset/Stop with explicit drain
	// keeps the batch-collection loop allocation-free.
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	batch := make([]*request, 0, g.maxBatch)
	// One reusable Batch per worker: it crosses the Backend interface by
	// pointer, so a stack-local would escape and cost an allocation per
	// served batch.
	scratch := new(Batch)

	if inst.warmupMs > 0 {
		if err := sleepFor(g.ctx, g.scaled(inst.warmupMs)); err != nil {
			g.failDrain(inst)
			return
		}
	}

	for {
		first := g.take(inst)
		if first == nil {
			select {
			case <-g.ctx.Done():
				g.failDrain(inst)
				return
			case <-inst.stop:
				g.retireDrain(inst, batch, scratch)
				return
			case first = <-inst.queues[2]:
				g.tookReq(inst, first)
			case first = <-inst.queues[1]:
				g.tookReq(inst, first)
			case first = <-inst.queues[0]:
				g.tookReq(inst, first)
			}
		}
		batch = append(batch[:0], first)
		stopping := g.collect(inst, &batch, timer)
		g.serveBatch(inst, batch, scratch)
		if stopping {
			g.retireDrain(inst, batch, scratch)
			return
		}
	}
}

// collect fills batch (which already holds one request) up to MaxBatch,
// waiting at most the flush timeout for stragglers. It reports whether a
// retire was requested while collecting.
func (g *Gateway) collect(inst *instance, batch *[]*request, timer *time.Timer) (stopping bool) {
	if g.maxBatch <= 1 {
		return false
	}
	// Greedily absorb whatever is already queued.
	for len(*batch) < g.maxBatch {
		r := g.take(inst)
		if r == nil {
			break
		}
		*batch = append(*batch, r)
	}
	if len(*batch) >= g.maxBatch || g.batchTimeoutMs <= 0 {
		return false
	}
	timer.Reset(g.scaled(g.batchTimeoutMs))
	defer func() {
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
	}()
	for len(*batch) < g.maxBatch {
		r := g.take(inst)
		if r == nil {
			select {
			case <-timer.C:
				return false
			case <-g.ctx.Done():
				return false
			case <-inst.stop:
				return true
			case r = <-inst.queues[2]:
				g.tookReq(inst, r)
			case r = <-inst.queues[1]:
				g.tookReq(inst, r)
			case r = <-inst.queues[0]:
				g.tookReq(inst, r)
			}
		}
		if r != nil {
			*batch = append(*batch, r)
		}
	}
	return false
}

// serveBatch executes one collected batch on the backend and records every
// completion. The Batch value and payload slice live on the worker stack —
// nothing escapes on the payload-free path.
func (g *Gateway) serveBatch(inst *instance, reqs []*request, b *Batch) {
	n := len(reqs)
	if n == 0 {
		return
	}
	samples := 0
	withPayload := false
	anySampled := false
	for _, r := range reqs {
		samples += r.batch
		if r.payload != nil {
			withPayload = true
		}
		if r.sampled {
			anySampled = true
		}
	}
	*b = Batch{Requests: n, Samples: samples}
	if withPayload {
		payloads := make([][]byte, n)
		for i, r := range reqs {
			payloads[i] = r.payload
		}
		b.Payloads = payloads
	}

	// backendStart closes the batch-fuse span and opens the backend span for
	// every traced request riding in this batch.
	backendStart := 0.0
	if anySampled {
		backendStart = g.nowMs()
	}
	inst.inflight.Add(int64(n))
	svcMs, err := g.backend.Serve(g.ctx, inst.typ, b)
	// A chaos slowdown stretches this instance's service time: sleep out
	// the extra stream time so stragglers degrade real measured latency,
	// the same signal the SLO engine and controller react to.
	if f := inst.slowdown(g.nowMs()); f > 1 && err == nil && svcMs > 0 {
		if sleepFor(g.ctx, g.scaled(svcMs*(f-1))) == nil {
			svcMs *= f
		}
	}
	inst.inflight.Add(-int64(n))
	now := g.nowMs()

	g.m.batches.Inc()
	g.m.batchedReqs.Add(uint64(n))
	g.m.batchSize.Observe(float64(n))
	for i, r := range reqs {
		reqErr := err
		if reqErr == nil && b.Errs != nil {
			reqErr = b.Errs[i]
		}
		if reqErr != nil {
			g.failRequest(r, inst, reqErr, err == nil, backendStart, now)
			continue
		}
		lat := now - r.arrivalMs
		g.m.completeOK(r.rank, lat, lat <= g.qosMs)
		inst.served.Add(1)
		var body []byte
		if b.Bodies != nil {
			body = b.Bodies[i]
		}
		if r.sampled {
			g.recordServeTrace(r, inst, backendStart, now, lat, "served")
		}
		g.respond(r, Response{
			LatencyMs: lat,
			ServiceMs: svcMs,
			Instance:  inst.name,
			Body:      body,
			TraceSeq:  r.seq,
			TraceID:   r.id,
		})
	}
}

// requeueLimit caps how many times one request may be re-placed after a
// partial-batch backend failure before it fails loudly.
const requeueLimit = 2

// failRequest settles one request whose batch (or whose slot in a partially
// failed batch) errored. Partial failures get tiered second chances:
// Critical and Standard requests re-queue onto the live pool (bounded by
// requeueLimit), Sheddable ones are shed — explicit outcomes either way, a
// failed batch never just vanishes. Whole-batch failures (backend-level
// error, typically shutdown) fail immediately: retrying against a cancelled
// context only spins.
func (g *Gateway) failRequest(r *request, inst *instance, reqErr error, partial bool, backendStart, now float64) {
	if partial && g.ctx.Err() == nil {
		if r.rank > 0 && r.attempts < requeueLimit {
			r.attempts++
			g.m.requeued.Inc()
			if g.reroute(r) {
				return
			}
			// No queue anywhere: fall through to a loud failure.
		} else if r.rank == 0 {
			g.m.recordShed(r.rank)
			if r.sampled {
				g.recordServeTrace(r, inst, backendStart, now, 0, "shed")
			}
			g.respond(r, Response{Err: reqErr, Instance: inst.name, TraceSeq: r.seq, TraceID: r.id})
			return
		}
	}
	g.m.failed.Inc()
	if r.sampled {
		g.recordServeTrace(r, inst, backendStart, now, 0, "failed")
	}
	g.respond(r, Response{Err: reqErr, Instance: inst.name, TraceSeq: r.seq, TraceID: r.id})
}

// recordServeTrace copies a completed request's timeline into the trace
// ring. Called before respond — after respond the pooled request may be
// reused by a concurrent admit.
func (g *Gateway) recordServeTrace(r *request, inst *instance, backendStart, backendEnd, latMs float64, outcome string) {
	end := g.nowMs()
	g.traces.Record(func(t *obs.Trace) {
		t.Seq = r.seq
		t.ID = r.id
		t.Class = tierNames[r.rank]
		t.Outcome = outcome
		t.Instance = inst.name
		t.ArrivalMs = r.arrivalMs
		t.LatencyMs = latMs
		t.Spans = append(t.Spans,
			obs.Span{Name: "admit", StartMs: r.tAdmit, EndMs: r.tAdmitted},
			obs.Span{Name: "queue", StartMs: r.tAdmitted, EndMs: r.tTaken},
			obs.Span{Name: "batch-fuse", StartMs: r.tTaken, EndMs: backendStart},
			obs.Span{Name: "backend", StartMs: backendStart, EndMs: backendEnd},
			obs.Span{Name: "respond", StartMs: backendEnd, EndMs: end},
		)
	})
}

// retireDrain is the worker side of drain-then-retire. Ordering matters: the
// exited store happens before the drain loop, and the router checks exited
// after its enqueue — so either the router's send is observed by this drain,
// or the router sees exited and rescues the request itself. Either way no
// admitted request is stranded on a retired instance.
func (g *Gateway) retireDrain(inst *instance, batch []*request, scratch *Batch) {
	inst.exited.Store(true)
	for {
		batch = batch[:0]
		for len(batch) < g.maxBatch {
			r := g.take(inst)
			if r == nil {
				break
			}
			batch = append(batch, r)
		}
		if len(batch) == 0 {
			g.m.recordRetire(g.nowMs(), "instance_retired", inst)
			return
		}
		g.serveBatch(inst, batch, scratch)
	}
}

// failDrain fails out everything still queued when the gateway itself shuts
// down (context cancelled): respond with the context error, serve nothing.
func (g *Gateway) failDrain(inst *instance) {
	inst.exited.Store(true)
	err := g.ctx.Err()
	for {
		r := g.take(inst)
		if r == nil {
			return
		}
		g.m.failed.Inc()
		g.respond(r, Response{Err: err, Instance: inst.name, TraceSeq: r.seq, TraceID: r.id})
	}
}
