package obs

import (
	"math"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. All methods are lock-free.
type Counter struct {
	v  atomic.Uint64
	ls string
}

func (c *Counter) labelString() string { return c.ls }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// CounterVec is a counter family partitioned by label values.
type CounterVec struct{ f *family }

// With returns the counter child for the given label values, creating it on
// first use. Resolve children once at construction; With takes a lock.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.getOrAdd(values, func(ls string) child { return &Counter{ls: ls} }).(*Counter)
}

// Counter registers (or returns the existing) unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.family(name, help, kindCounter, nil)
	return f.getOrAdd(nil, func(ls string) child { return &Counter{ls: ls} }).(*Counter)
}

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.family(name, help, kindCounter, labels)}
}

// Gauge is a metric that can go up and down, or be backed by a callback
// sampled at exposition time.
type Gauge struct {
	bits atomic.Uint64 // math.Float64bits
	fn   func() float64
	ls   string
}

func (g *Gauge) labelString() string { return g.ls }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add increments the gauge by delta using a CAS loop.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Value returns the current value (calling the callback for func gauges).
func (g *Gauge) Value() float64 {
	if g.fn != nil {
		return g.fn()
	}
	return math.Float64frombits(g.bits.Load())
}

// GaugeVec is a gauge family partitioned by label values.
type GaugeVec struct{ f *family }

// With returns the stored-value gauge child for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.getOrAdd(values, func(ls string) child { return &Gauge{ls: ls} }).(*Gauge)
}

// Gauge registers (or returns the existing) unlabeled stored-value gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.family(name, help, kindGauge, nil)
	return f.getOrAdd(nil, func(ls string) child { return &Gauge{ls: ls} }).(*Gauge)
}

// GaugeFunc registers an unlabeled gauge whose value is read from fn at
// exposition time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.family(name, help, kindGauge, nil)
	f.getOrAdd(nil, func(ls string) child { return &Gauge{fn: fn, ls: ls} })
}

// GaugeVec registers a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.family(name, help, kindGauge, labels)}
}

// Histogram counts observations into fixed buckets. Observe is lock-free:
// one atomic add on the bucket counter, one on the total count, and a CAS
// loop on the float sum.
type Histogram struct {
	uppers  []float64 // strictly increasing bucket upper bounds
	counts  []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
	ls      string
}

func (h *Histogram) labelString() string { return h.ls }

// Observe records v into its bucket.
func (h *Histogram) Observe(v float64) {
	// Binary search for the first upper bound >= v; observations beyond the
	// last bound land only in the implicit +Inf bucket (count/sum).
	lo, hi := 0, len(h.uppers)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.uppers[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(h.counts) {
		h.counts[lo].Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Counts appends the per-bucket (non-cumulative) counts to dst and returns
// it. Pass a slice with sufficient capacity to avoid allocation.
func (h *Histogram) Counts(dst []uint64) []uint64 {
	for i := range h.counts {
		dst = append(dst, h.counts[i].Load())
	}
	return dst
}

// Quantile returns an interpolated estimate of the q-quantile (0..1) of
// the observed distribution, computed the way a Prometheus server evaluates
// histogram_quantile over the exposed cumulative buckets. The bucket counts
// are snapshotted in one pass and the total is derived from that same
// snapshot, so a Quantile racing concurrent Observe calls still answers
// from a single coherent distribution instead of mixing a fresh total with
// stale buckets. It returns 0 when the histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	counts := make([]uint64, 0, len(h.uppers))
	counts = h.Counts(counts)
	var inBuckets uint64
	for _, n := range counts {
		inBuckets += n
	}
	total := h.count.Load()
	if total < inBuckets {
		// Observe bumps the bucket before the total; a racing reader can
		// see the bucket increment first. The bucket sum is the later
		// coherent view, so trust it.
		total = inBuckets
	}
	return QuantileOverCounts(h.uppers, counts, total, q)
}

// QuantileOverCounts estimates the q-quantile (clamped into [0,1]) of a
// bucketed distribution with the exposition-consistent interpolation
// Prometheus's histogram_quantile uses: uppers are the finite bucket upper
// bounds, counts the per-bucket (non-cumulative) observation counts, and
// total the overall observation count — any excess of total over the bucket
// sum is the implicit +Inf bucket. The rank q*total lands in the first
// bucket whose cumulative count reaches it; the estimate interpolates
// linearly between that bucket's bounds (the first bucket's lower bound is
// 0), and a rank past the last finite bucket clamps to the highest finite
// bound. Returns 0 for an empty distribution.
func QuantileOverCounts(uppers []float64, counts []uint64, total uint64, q float64) float64 {
	if total == 0 || len(uppers) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	cum := uint64(0)
	for i, n := range counts {
		if i >= len(uppers) {
			break
		}
		if n == 0 {
			continue
		}
		if float64(cum+n) >= rank {
			lower := 0.0
			if i > 0 {
				lower = uppers[i-1]
			}
			frac := (rank - float64(cum)) / float64(n)
			if frac < 0 {
				frac = 0
			} else if frac > 1 {
				frac = 1
			}
			return lower + frac*(uppers[i]-lower)
		}
		cum += n
	}
	return uppers[len(uppers)-1]
}

// HistogramVec is a histogram family partitioned by label values. All
// children share the family's bucket layout.
type HistogramVec struct {
	f      *family
	uppers []float64
}

// With returns the histogram child for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.getOrAdd(values, func(ls string) child {
		return &Histogram{uppers: v.uppers, counts: make([]atomic.Uint64, len(v.uppers)), ls: ls}
	}).(*Histogram)
}

// Histogram registers an unlabeled histogram with the given strictly
// increasing bucket upper bounds.
func (r *Registry) Histogram(name, help string, uppers []float64) *Histogram {
	checkBuckets(name, uppers)
	f := r.family(name, help, kindHistogram, nil)
	return f.getOrAdd(nil, func(ls string) child {
		return &Histogram{uppers: uppers, counts: make([]atomic.Uint64, len(uppers)), ls: ls}
	}).(*Histogram)
}

// HistogramVec registers a labeled histogram family with shared buckets.
func (r *Registry) HistogramVec(name, help string, uppers []float64, labels ...string) *HistogramVec {
	checkBuckets(name, uppers)
	return &HistogramVec{f: r.family(name, help, kindHistogram, labels), uppers: uppers}
}

func checkBuckets(name string, uppers []float64) {
	if len(uppers) == 0 {
		panic("obs: histogram " + name + " needs at least one bucket")
	}
	for i := 1; i < len(uppers); i++ {
		if !(uppers[i] > uppers[i-1]) {
			panic("obs: histogram " + name + " buckets must be strictly increasing")
		}
	}
}

// ExpBuckets returns n strictly increasing bucket bounds starting at start
// and multiplying by factor, for use with Histogram registration.
func ExpBuckets(start, factor float64, n int) []float64 {
	if n <= 0 || start <= 0 || factor <= 1 {
		panic("obs: ExpBuckets wants start > 0, factor > 1, n > 0")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}
