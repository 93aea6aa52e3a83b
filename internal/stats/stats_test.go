package stats

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestDeriveSeedStability(t *testing.T) {
	a := DeriveSeed(42, "workload", "mtwnd")
	b := DeriveSeed(42, "workload", "mtwnd")
	if a != b {
		t.Fatalf("DeriveSeed not stable: %d != %d", a, b)
	}
	c := DeriveSeed(42, "workload", "dien")
	if a == c {
		t.Fatalf("DeriveSeed collision for distinct labels")
	}
	d := DeriveSeed(43, "workload", "mtwnd")
	if a == d {
		t.Fatalf("DeriveSeed collision for distinct master seeds")
	}
}

func TestDeriveSeedLabelBoundary(t *testing.T) {
	// ("ab","c") must differ from ("a","bc"): separators matter.
	if DeriveSeed(1, "ab", "c") == DeriveSeed(1, "a", "bc") {
		t.Fatalf("label boundaries are ambiguous")
	}
}

func TestRNGDeterminism(t *testing.T) {
	r1 := Derive(7, "x")
	r2 := Derive(7, "x")
	for i := 0; i < 100; i++ {
		if r1.Float64() != r2.Float64() {
			t.Fatalf("same-seed streams diverged at %d", i)
		}
	}
}

func TestExponentialMean(t *testing.T) {
	r := Derive(1, "exp")
	const rate = 2.5
	var s Summary
	for i := 0; i < 200000; i++ {
		s.Add(r.Exponential(rate))
	}
	if got, want := s.Mean(), 1/rate; math.Abs(got-want) > 0.01 {
		t.Fatalf("Exponential mean = %g, want ~%g", got, want)
	}
}

func TestExponentialPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for rate <= 0")
		}
	}()
	Derive(1, "bad").Exponential(0)
}

func TestNormalMoments(t *testing.T) {
	r := Derive(1, "norm")
	var s Summary
	for i := 0; i < 200000; i++ {
		s.Add(r.Normal(3, 2))
	}
	if math.Abs(s.Mean()-3) > 0.03 {
		t.Fatalf("Normal mean = %g, want ~3", s.Mean())
	}
	if math.Abs(s.StdDev()-2) > 0.03 {
		t.Fatalf("Normal stddev = %g, want ~2", s.StdDev())
	}
}

func TestLogNormalMean(t *testing.T) {
	r := Derive(1, "logn")
	d := LogNormalDist{Mu: 1.2, Sigma: 0.5}
	var s Summary
	for i := 0; i < 300000; i++ {
		s.Add(d.Sample(r))
	}
	if rel := math.Abs(s.Mean()-d.Mean()) / d.Mean(); rel > 0.02 {
		t.Fatalf("LogNormal mean = %g, want ~%g (rel err %g)", s.Mean(), d.Mean(), rel)
	}
}

func TestParetoTail(t *testing.T) {
	r := Derive(1, "pareto")
	const xm, alpha = 10.0, 2.0
	var s Summary
	for i := 0; i < 300000; i++ {
		v := r.Pareto(xm, alpha)
		if v < xm {
			t.Fatalf("Pareto sample %g below scale %g", v, xm)
		}
		s.Add(v)
	}
	want := xm * alpha / (alpha - 1)
	if rel := math.Abs(s.Mean()-want) / want; rel > 0.05 {
		t.Fatalf("Pareto mean = %g, want ~%g", s.Mean(), want)
	}
}

func TestPoissonSmallAndLarge(t *testing.T) {
	r := Derive(1, "poisson")
	for _, lambda := range []float64{0.5, 4, 25, 200} {
		var s Summary
		for i := 0; i < 100000; i++ {
			s.Add(float64(r.Poisson(lambda)))
		}
		if rel := math.Abs(s.Mean()-lambda) / lambda; rel > 0.05 {
			t.Fatalf("Poisson(%g) mean = %g", lambda, s.Mean())
		}
	}
	if r.Poisson(0) != 0 {
		t.Fatalf("Poisson(0) must be 0")
	}
}

func TestHeavyTailLogNormalMeanAndTail(t *testing.T) {
	d := HeavyTailLogNormal{Mu: 2.0, Sigma: 0.8, TailProb: 0.05, TailScale: 60, TailShape: 2.5}
	r := Derive(1, "htln")
	var s Summary
	tailCount := 0
	const n = 400000
	for i := 0; i < n; i++ {
		v := d.Sample(r)
		if v >= 60 {
			tailCount++
		}
		s.Add(v)
	}
	if rel := math.Abs(s.Mean()-d.Mean()) / d.Mean(); rel > 0.05 {
		t.Fatalf("heavy-tail mean = %g, want ~%g", s.Mean(), d.Mean())
	}
	// The tail mass must exceed what the pure log-normal body would put
	// beyond 60: the distribution is heavier-tailed than its body.
	bodyOnly := LogNormalDist{Mu: 2.0, Sigma: 0.8}
	rb := Derive(1, "htln-body")
	bodyTail := 0
	for i := 0; i < n; i++ {
		if bodyOnly.Sample(rb) >= 60 {
			bodyTail++
		}
	}
	if tailCount <= bodyTail {
		t.Fatalf("heavy-tail distribution is not heavier than its body: %d <= %d", tailCount, bodyTail)
	}
}

func TestHeavyTailMeanInfiniteForShapeLE1(t *testing.T) {
	d := HeavyTailLogNormal{Mu: 1, Sigma: 1, TailProb: 0.1, TailScale: 5, TailShape: 1}
	if !math.IsInf(d.Mean(), 1) {
		t.Fatalf("shape<=1 Pareto tail must have infinite mean")
	}
}

func TestClampedIntDist(t *testing.T) {
	d := ClampedIntDist{Dist: ConstantDist{V: 500}, Min: 1, Max: 128}
	r := Derive(1, "clamp")
	if got := d.SampleInt(r); got != 128 {
		t.Fatalf("clamp high: got %d", got)
	}
	d.Dist = ConstantDist{V: -3}
	if got := d.SampleInt(r); got != 1 {
		t.Fatalf("clamp low: got %d", got)
	}
	d.Dist = ConstantDist{V: 32.4}
	if got := d.SampleInt(r); got != 32 {
		t.Fatalf("round: got %d", got)
	}
}

func TestSummaryAgainstDirectComputation(t *testing.T) {
	xs := []float64{4, 7, 1, 9, 9, 2, 5.5, -3, 0, 12}
	var s Summary
	for _, x := range xs {
		s.Add(x)
	}
	mean := MeanOf(xs)
	if math.Abs(s.Mean()-mean) > 1e-12 {
		t.Fatalf("mean mismatch: %g vs %g", s.Mean(), mean)
	}
	varSum := 0.0
	for _, x := range xs {
		varSum += (x - mean) * (x - mean)
	}
	want := varSum / float64(len(xs)-1)
	if math.Abs(s.Variance()-want) > 1e-12 {
		t.Fatalf("variance mismatch: %g vs %g", s.Variance(), want)
	}
	if s.Min() != -3 || s.Max() != 12 {
		t.Fatalf("extremes mismatch: min=%g max=%g", s.Min(), s.Max())
	}
	if s.N() != len(xs) {
		t.Fatalf("count mismatch")
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Variance() != 0 || s.N() != 0 {
		t.Fatalf("empty summary must be all zeros")
	}
}

func TestPercentileKnownValues(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 10}, {0.05, 10}, {0.1, 10}, {0.5, 50}, {0.99, 100}, {1, 100}, {0.91, 100}, {0.9, 90},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); got != c.want {
			t.Errorf("Percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
}

func TestPercentileEmptyAndClamp(t *testing.T) {
	if Percentile(nil, 0.5) != 0 {
		t.Fatalf("empty percentile must be 0")
	}
	xs := []float64{3, 1, 2}
	if got := Percentile(xs, -1); got != 1 {
		t.Fatalf("p<0 clamps to min, got %g", got)
	}
	if got := Percentile(xs, 2); got != 3 {
		t.Fatalf("p>1 clamps to max, got %g", got)
	}
	// Input must not be mutated.
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("Percentile mutated its input: %v", xs)
	}
}

// nearestRankRef is the reference the selection must match: copy,
// sort.Float64s, then the nearest rank of the clamped p.
func nearestRankRef(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// sameRankValue reports whether a selected order statistic has the
// reference's bits. sort.Float64s orders -0 and +0 as equal, and all NaNs
// as equal, so between those (and only those) any of the tied values is
// the right answer.
func sameRankValue(got, want float64) bool {
	if math.Float64bits(got) == math.Float64bits(want) {
		return true
	}
	return cmp.Compare(got, want) == 0 && (got == 0 || math.IsNaN(got))
}

// sortedBits returns the bit patterns of xs in ascending order: two slices
// are permutations of each other iff their sortedBits are equal.
func sortedBits(xs []float64) []uint64 {
	out := make([]uint64, len(xs))
	for i, x := range xs {
		out[i] = math.Float64bits(x)
	}
	slices.Sort(out)
	return out
}

// checkSelection asserts that Percentile and PercentileInPlace agree with
// the sort-based reference on xs at p, that Percentile leaves xs alone and
// that PercentileInPlace only permutes it.
func checkSelection(t *testing.T, xs []float64, p float64) {
	t.Helper()
	want := nearestRankRef(xs, p)
	before := append([]float64(nil), xs...)
	if got := Percentile(xs, p); !sameRankValue(got, want) {
		t.Fatalf("Percentile(%v, %g) = %g, sorted reference %g", xs, p, got, want)
	}
	for i := range xs {
		if math.Float64bits(xs[i]) != math.Float64bits(before[i]) {
			t.Fatalf("Percentile mutated its input: %v, was %v", xs, before)
		}
	}
	if got := PercentileInPlace(xs, p); !sameRankValue(got, want) {
		t.Fatalf("PercentileInPlace(%v, %g) = %g, sorted reference %g", before, p, got, want)
	}
	if !slices.Equal(sortedBits(xs), sortedBits(before)) {
		t.Fatalf("PercentileInPlace left %v, not a permutation of %v", xs, before)
	}
}

func TestPercentileSortedMatchesPercentile(t *testing.T) {
	f := func(raw []float64, pRaw float64) bool {
		checkSelection(t, raw, math.Mod(math.Abs(pRaw), 1))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	// Shapes that defeat naive pivots, at every rank a QoS target uses.
	const n = 3001
	shapes := map[string]func(i int) float64{
		"ascending":  func(i int) float64 { return float64(i) },
		"descending": func(i int) float64 { return float64(n - i) },
		"constant":   func(int) float64 { return 7 },
		"organ-pipe": func(i int) float64 { return float64(min(i, n-i)) },
		"sawtooth":   func(i int) float64 { return float64(i % 17) },
		"inf-tail": func(i int) float64 {
			if i > n/3 {
				return math.Inf(1)
			}
			return float64(i % 5)
		},
		// sort.Float64s puts NaN below -Inf; the selection must too.
		"specials": func(i int) float64 {
			return []float64{math.NaN(), math.Inf(1), float64(i), math.Inf(-1), math.Copysign(0, -1), 0, -float64(i)}[i%7]
		},
	}
	for name, shape := range shapes {
		for _, p := range []float64{0, 0.1, 0.3, 0.5, 0.9, 0.95, 0.99, 0.999, 1} {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = shape(i)
			}
			t.Run(fmt.Sprintf("%s/p=%g", name, p), func(t *testing.T) { checkSelection(t, xs, p) })
		}
	}
}

// FuzzPercentile checks the in-place selection against the sort-based
// reference on decoded vectors rich in NaN, ±Inf, -0 and duplicates, at any
// p, including values outside [0, 1] and NaN.
func FuzzPercentile(f *testing.F) {
	f.Add([]byte{}, 0.5)
	f.Add([]byte{0, 1, 2, 3, 4, 5, 13, 21}, 0.99)
	f.Add([]byte{3, 4, 3, 4, 3, 4}, 0.5)
	f.Add([]byte{5, 5, 5, 5, 5, 6, 6, 6}, -1.0)
	f.Add([]byte{7, 0, 0, 0, 0, 0, 0, 0xf8, 0x7f, 1, 2}, 2.0)
	f.Add([]byte{0, 0, 8, 16, 1, 1}, math.NaN())
	f.Fuzz(func(t *testing.T, data []byte, p float64) {
		var xs []float64
		for i := 0; i < len(data) && len(xs) < 4096; i++ {
			switch b := data[i]; b % 8 {
			case 0:
				xs = append(xs, math.NaN())
			case 1:
				xs = append(xs, math.Inf(1))
			case 2:
				xs = append(xs, math.Inf(-1))
			case 3:
				xs = append(xs, math.Copysign(0, -1))
			case 4:
				xs = append(xs, 0)
			case 7:
				// The next eight bytes as raw bits: any float64,
				// NaN payloads included.
				if i+8 < len(data) {
					xs = append(xs, math.Float64frombits(binary.LittleEndian.Uint64(data[i+1:])))
					i += 8
					continue
				}
				fallthrough
			default:
				// A few small values, so duplicates are common.
				xs = append(xs, float64(b>>3)-8)
			}
		}
		checkSelection(t, xs, p)
	})
}

func TestPercentileIsMonotoneInP(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 1.0; p += 0.1 {
			v := Percentile(xs, p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFractionBelow(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if got := FractionBelow(xs, 2.5); got != 0.5 {
		t.Fatalf("FractionBelow = %g, want 0.5", got)
	}
	if got := FractionBelow(xs, 4); got != 1 {
		t.Fatalf("inclusive boundary failed: %g", got)
	}
	if got := FractionBelow(nil, 1); got != 0 {
		t.Fatalf("empty input: %g", got)
	}
}

func TestFractionBelowPercentileConsistency(t *testing.T) {
	// Rsat(latencies, Percentile(latencies, p)) >= p must always hold:
	// the p-quantile is the smallest value with at least p mass below it.
	f := func(raw []float64, pRaw float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		p := math.Mod(math.Abs(pRaw), 1)
		return FractionBelow(xs, Percentile(xs, p))+1e-12 >= p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
