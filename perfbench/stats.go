package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a tail percentile before the
// benchmark reports it: a p99 over 200 samples is two samples, not a p99.
const minTail = 10

// percentile returns the nearest-rank p-quantile of xs (p in (0,1]) and
// whether the sample supports it. A tail percentile (p > 0.5) is supported
// only when at least minTail samples lie beyond its rank; the median needs
// one sample.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	ok := p <= 0.5 || n-rank >= minTail
	return s[rank-1], ok
}

// interval is a half-open [start, end) span of time in nanoseconds.
type interval struct{ start, end int64 }

// unionLen returns how much of [lo, hi) the union of ivs covers: overlapping
// children (parallel evaluations) count once, and parts outside the parent
// are clipped. A span's self time is its length minus this.
func unionLen(ivs []interval, lo, hi int64) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		s, e := max(iv.start, lo), min(iv.end, hi)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total int64
	var cur interval
	for i, iv := range clipped {
		switch {
		case i == 0:
			cur = iv
		case iv.start <= cur.end:
			cur.end = max(cur.end, iv.end)
		default:
			total += cur.end - cur.start
			cur = iv
		}
	}
	if len(clipped) > 0 {
		total += cur.end - cur.start
	}
	return total
}

// step is one rung of the infer rate ladder.
type step struct {
	rate float64 // offered req/s
	// pass: achieved >= 99% of offered and p99 within the limit.
	pass bool
	// valid: the generator kept its schedule, so the verdict is about the
	// program and not about the load generator.
	valid bool
}

// maxRate selects the highest passing rate that lies below every rate that
// failed. An invalid step counts as failed: a rate the generator could not
// offer has not been shown to be sustainable. A lucky pass above a failure is
// ignored, so one noisy rung cannot inflate the result.
func maxRate(steps []step) (float64, bool) {
	lowestFail := math.Inf(1)
	for _, s := range steps {
		if !s.pass || !s.valid {
			lowestFail = math.Min(lowestFail, s.rate)
		}
	}
	best, ok := 0.0, false
	for _, s := range steps {
		if s.pass && s.valid && s.rate < lowestFail && s.rate > best {
			best, ok = s.rate, true
		}
	}
	return best, ok
}
