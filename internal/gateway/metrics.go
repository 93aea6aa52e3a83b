package gateway

import (
	"log/slog"
	"math"
	"strconv"
	"sync"

	"ribbon/internal/controller"
	"ribbon/internal/dispatch"
	"ribbon/internal/obs"
)

// histBuckets is the per-tier latency histogram resolution: log-spaced
// buckets, histPerOctave per doubling, covering 0.25 ms up to ~4 minutes of
// stream time. Recording is one atomic increment — the dispatch hot path
// never takes a lock for metrics.
const (
	histBuckets   = 128
	histPerOctave = 8
	histMinMs     = 0.25
)

// bucketUpperMs returns the inclusive upper bound of latency bucket b.
func bucketUpperMs(b int) float64 {
	return histMinMs * math.Pow(2, float64(b+1)/histPerOctave)
}

// latencyBuckets materializes the log-spaced bucket bounds once, shared by
// every per-tier histogram in the registry.
var latencyBuckets = func() []float64 {
	out := make([]float64, histBuckets)
	for b := range out {
		out[b] = bucketUpperMs(b)
	}
	return out
}()

// batchSizeBuckets covers fused batch sizes up to the largest MaxBatch the
// flood drivers use.
var batchSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64}

// tierMetrics holds one criticality tier's pre-resolved registry children.
// Resolving the labeled series once at construction keeps the hot path at a
// single atomic op per event — no map lookups, no locks.
type tierMetrics struct {
	requests  *obs.Counter
	completed *obs.Counter
	shed      *obs.Counter
	rejected  *obs.Counter
	qosMet    *obs.Counter
	latency   *obs.Histogram
}

// metrics is the gateway's view over its obs.Registry, plus the controller
// decision history and the control-plane audit trail.
type metrics struct {
	reg *obs.Registry

	accepted      *obs.Counter
	failed        *obs.Counter
	requeued      *obs.Counter
	feedDropped   *obs.Counter
	batches       *obs.Counter
	batchedReqs   *obs.Counter
	batchSize     *obs.Histogram
	pickSeconds   *obs.Histogram
	reconfApplied *obs.Counter
	reconfKept    *obs.Counter
	sloFiring     *obs.Counter
	sloResolved   *obs.Counter

	tiers [dispatch.NumRanks]tierMetrics

	trail *obs.Trail

	mu       sync.Mutex
	reconfig []controller.Reconfiguration
}

// init registers the gateway's metric families on reg and resolves every
// labeled child the hot path will touch.
func (m *metrics) init(reg *obs.Registry, policy string, logger *slog.Logger, auditCap int) {
	m.reg = reg
	m.trail = obs.NewTrail(auditCap, logger)

	requests := reg.CounterVec("ribbon_gateway_requests_total",
		"Requests offered to the data plane by criticality tier (served + shed + rejected + in flight).", "tier")
	completed := reg.CounterVec("ribbon_gateway_served_total",
		"Requests served to completion by tier.", "tier")
	shed := reg.CounterVec("ribbon_gateway_shed_total",
		"Requests dropped by the shedding policy by tier.", "tier")
	rejected := reg.CounterVec("ribbon_gateway_rejected_total",
		"Requests refused at admission (every queue full, or no live pool) by tier.", "tier")
	qosMet := reg.CounterVec("ribbon_gateway_qos_met_total",
		"Completions within the model's latency target by tier.", "tier")
	latency := reg.HistogramVec("ribbon_gateway_request_latency_ms",
		"Request latency from scheduled arrival to completion, stream-time milliseconds.",
		latencyBuckets, "tier")
	for r := range m.tiers {
		m.tiers[r] = tierMetrics{
			requests:  requests.With(tierNames[r]),
			completed: completed.With(tierNames[r]),
			shed:      shed.With(tierNames[r]),
			rejected:  rejected.With(tierNames[r]),
			qosMet:    qosMet.With(tierNames[r]),
			latency:   latency.With(tierNames[r]),
		}
	}

	m.accepted = reg.Counter("ribbon_gateway_accepted_total",
		"Requests admitted onto an instance queue.")
	m.failed = reg.Counter("ribbon_gateway_failed_total",
		"Requests that failed (backend error, shutdown, or displaced without a home).")
	m.requeued = reg.Counter("ribbon_gateway_requeued_total",
		"Requests re-placed on the pool after a partial-batch backend failure.")
	m.feedDropped = reg.Counter("ribbon_gateway_feed_dropped_total",
		"Arrival samples dropped on a full controller feed.")
	m.batches = reg.Counter("ribbon_gateway_batches_total",
		"Batches handed to the backend.")
	m.batchedReqs = reg.Counter("ribbon_gateway_batched_requests_total",
		"Requests carried inside those batches.")
	m.batchSize = reg.Histogram("ribbon_gateway_batch_size",
		"Fused batch size at backend hand-off.", batchSizeBuckets)
	m.pickSeconds = reg.HistogramVec("ribbon_gateway_pick_seconds",
		"Dispatch-policy instance selection latency, wall seconds.",
		obs.ExpBuckets(1e-7, 4, 10), "policy").With(policy)
	reconf := reg.CounterVec("ribbon_gateway_reconfigurations_total",
		"Controller keep-or-switch verdicts by whether the switch was applied.", "applied")
	m.reconfApplied = reconf.With("true")
	m.reconfKept = reconf.With("false")
}

func (m *metrics) recordRequest(rank int) { m.tiers[rank].requests.Inc() }

func (m *metrics) completeOK(rank int, latencyMs float64, qosMet bool) {
	t := &m.tiers[rank]
	t.completed.Inc()
	if qosMet {
		t.qosMet.Inc()
	}
	t.latency.Observe(latencyMs)
}

func (m *metrics) recordShed(rank int) { m.tiers[rank].shed.Inc() }

func (m *metrics) recordReject(rank int) { m.tiers[rank].rejected.Inc() }

func (m *metrics) recordDecision(atMs float64, rec controller.Reconfiguration) {
	m.mu.Lock()
	m.reconfig = append(m.reconfig, rec)
	m.mu.Unlock()
	if rec.Applied {
		m.reconfApplied.Inc()
	} else {
		m.reconfKept.Inc()
	}
	m.trail.Record(atMs, "reconfigure", "controller verdict: "+rec.Reason,
		obs.F("applied", rec.Applied),
		obs.F("observed_scale", rec.ObservedScale),
		obs.F("from", rec.From.Key()),
		obs.F("to", rec.To.Key()),
		obs.F("from_cost_per_hour", rec.FromCostPerHour),
		obs.F("to_cost_per_hour", rec.ToCostPerHour),
		obs.F("migration_cost", rec.MigrationCost),
		obs.F("samples", rec.Samples),
	)
}

func (m *metrics) recordRetire(atMs float64, kind obs.EventKind, inst *instance) {
	m.trail.Record(atMs, kind, string(kind)+" instance "+strconv.Itoa(inst.id),
		obs.F("instance", inst.id),
		obs.F("type", inst.name),
		obs.F("served", inst.served.Load()),
	)
}

// TierSnapshot is one criticality tier's counters at a point in time.
type TierSnapshot struct {
	// Tier is the tier name ("critical", "standard", "sheddable").
	Tier string `json:"tier"`
	// Requests is the number offered to the tier (all outcomes).
	Requests uint64 `json:"requests"`
	// Completed is the number of requests served to completion.
	Completed uint64 `json:"completed"`
	// Shed is the number dropped by the shedding policy.
	Shed uint64 `json:"shed"`
	// Rejected is the number refused at admission (every queue full).
	Rejected uint64 `json:"rejected"`
	// QoSMet is the number of completions within the model's latency target.
	QoSMet uint64 `json:"qos_met"`
	// P50Ms and P99Ms are latency quantiles over completions, in stream-time
	// milliseconds, interpolated from the histogram (0 when empty).
	P50Ms float64 `json:"p50_ms"`
	P99Ms float64 `json:"p99_ms"`
}

// Rsat returns the tier's QoS satisfaction rate, counting shed and rejected
// requests as violations — the same accounting the offline simulator uses.
func (t TierSnapshot) Rsat() float64 {
	total := t.Completed + t.Shed + t.Rejected
	if total == 0 {
		return 1
	}
	return float64(t.QoSMet) / float64(total)
}

// Snapshot is a consistent-enough point-in-time view of the gateway: counters
// are read atomically one by one (individual counters are exact; cross-counter
// sums can be off by in-flight requests, which is inherent to a live plane).
type Snapshot struct {
	// Accepted counts requests admitted into the data plane; Completed,
	// Shed, Rejected, and Failed partition their outcomes (Failed means the
	// backend errored). Accepted can exceed the outcome sum by the requests
	// currently in flight.
	Accepted  uint64 `json:"accepted"`
	Completed uint64 `json:"completed"`
	Shed      uint64 `json:"shed"`
	Rejected  uint64 `json:"rejected"`
	Failed    uint64 `json:"failed"`
	// Requeued counts requests re-placed on the pool after a partial-batch
	// backend failure (they complete or fail later, under a bounded number
	// of re-queues).
	Requeued uint64 `json:"requeued"`
	// FeedDropped counts arrival timestamps dropped on the controller feed
	// because the channel was full; nonzero drops void replay determinism
	// but never block serving.
	FeedDropped uint64 `json:"feed_dropped"`
	// Batches and BatchedRequests describe batching efficacy: mean fused
	// batch size is BatchedRequests/Batches.
	Batches         uint64 `json:"batches"`
	BatchedRequests uint64 `json:"batched_requests"`
	// QueueDepth is the total number of requests queued across the live
	// pool at snapshot time; Inflight the number being served.
	QueueDepth int64 `json:"queue_depth"`
	Inflight   int64 `json:"inflight"`

	// Tiers is indexed by criticality rank (0 sheddable, 1 standard,
	// 2 critical — dispatch rank order).
	Tiers [dispatch.NumRanks]TierSnapshot `json:"tiers"`

	// Instances describes the live pool.
	Instances []InstanceSnapshot `json:"instances"`

	// Reconfigurations is the controller decision history so far.
	Reconfigurations []controller.Reconfiguration `json:"reconfigurations"`

	// Events is the gateway's control-plane audit trail (reconfiguration
	// verdicts and drain-then-retire progress), oldest first.
	Events []obs.Event `json:"events,omitempty"`
}

// InstanceSnapshot describes one live pool instance.
type InstanceSnapshot struct {
	// ID is the gateway-unique instance ID.
	ID int `json:"id"`
	// Type is the instance type name, e.g. "c5a.2xlarge".
	Type string `json:"type"`
	// QueueDepth and Inflight are the instance's current load.
	QueueDepth int64 `json:"queue_depth"`
	Inflight   int64 `json:"inflight"`
	// Served is the number of requests completed on this instance.
	Served uint64 `json:"served"`
	// Retiring reports a drain-then-retire in progress.
	Retiring bool `json:"retiring"`
}

var tierNames = [dispatch.NumRanks]string{"sheddable", "standard", "critical"}

// snapshotTiers fills the tier views from the registry children.
func (m *metrics) snapshotTiers() [dispatch.NumRanks]TierSnapshot {
	var out [dispatch.NumRanks]TierSnapshot
	for r := range m.tiers {
		t := &m.tiers[r]
		out[r] = TierSnapshot{
			Tier:      tierNames[r],
			Requests:  t.requests.Value(),
			Completed: t.completed.Value(),
			Shed:      t.shed.Value(),
			Rejected:  t.rejected.Value(),
			QoSMet:    t.qosMet.Value(),
			P50Ms:     t.latency.Quantile(0.50),
			P99Ms:     t.latency.Quantile(0.99),
		}
	}
	return out
}
