package stats

import (
	"cmp"
	"math"
	"math/bits"
	"sort"
)

// Summary accumulates streaming moments using Welford's algorithm plus exact
// extremes. The zero value is an empty, ready-to-use accumulator.
type Summary struct {
	n        int
	mean, m2 float64
	min, max float64
}

// Add incorporates one observation.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// N returns the number of observations.
func (s *Summary) N() int { return s.n }

// Mean returns the running mean (0 when empty).
func (s *Summary) Mean() float64 { return s.mean }

// Variance returns the unbiased sample variance (0 for n < 2).
func (s *Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev returns the sample standard deviation.
func (s *Summary) StdDev() float64 { return math.Sqrt(s.Variance()) }

// Min returns the smallest observation (0 when empty).
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation (0 when empty).
func (s *Summary) Max() float64 { return s.max }

// Percentile computes the p-quantile (p in [0,1]) of xs using the
// nearest-rank method. It returns 0 for an empty slice and leaves xs as it
// was; PercentileInPlace avoids the copy.
func Percentile(xs []float64, p float64) float64 {
	return PercentileInPlace(append([]float64(nil), xs...), p)
}

// PercentileInPlace is Percentile without the copy: it permutes xs. p is
// clamped to [0,1], and the result is the smallest value such that at least
// ceil(p*n) observations are <= it: exactly the value sort.Float64s would
// put at that rank, in the same order (NaN first, then -Inf up to +Inf).
// It finds that value by selection, in expected linear time, instead of
// sorting.
func PercentileInPlace(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return selectNth(xs, rank-1)
}

// selectNth permutes xs so that xs[k] holds the value sort.Float64s would
// place there, and returns it. It is a quickselect with a median-of-three
// pivot and a three-way partition, so runs of equal values (a drowned
// pool's +Inf latencies) end a round instead of degrading it. After
// 2*log2(n) rounds it sorts what is left, which bounds the worst case.
func selectNth(xs []float64, k int) float64 {
	lo, hi := 0, len(xs)
	for rounds := 2 * bits.Len(uint(len(xs))); hi-lo > 1; rounds-- {
		if rounds == 0 {
			sort.Float64s(xs[lo:hi])
			break
		}
		p := medianOfThree(xs[lo], xs[lo+(hi-lo)/2], xs[hi-1])
		// Partition xs[lo:hi] into < p, == p and > p.
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch x := xs[i]; {
			case cmp.Less(x, p):
				xs[lt], xs[i] = x, xs[lt]
				lt++
				i++
			case cmp.Less(p, x):
				gt--
				xs[i], xs[gt] = xs[gt], x
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return xs[k]
		}
	}
	return xs[k]
}

// medianOfThree returns the middle of a, b and c under cmp.Less.
func medianOfThree(a, b, c float64) float64 {
	if cmp.Less(b, a) {
		a, b = b, a
	}
	if cmp.Less(c, b) {
		b = c
		if cmp.Less(b, a) {
			b = a
		}
	}
	return b
}

// FractionBelow returns the fraction of xs that are <= limit. It is the
// QoS-satisfaction-rate primitive: Rsat = FractionBelow(latencies, target).
func FractionBelow(xs []float64, limit float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := 0
	for _, x := range xs {
		if x <= limit {
			c++
		}
	}
	return float64(c) / float64(len(xs))
}

// MeanOf returns the arithmetic mean of xs (0 for empty input).
func MeanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
