package gp

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"ribbon/internal/linalg"
)

// jitter is added to the covariance diagonal for numerical stability.
const jitter = 1e-8

// GP is a fitted Gaussian Process posterior.
type GP struct {
	kernel   Kernel
	noiseVar float64

	xs       [][]float64
	ys       []float64 // raw targets, kept for incremental re-conditioning
	centered []float64 // y - mean(y)
	alpha    []float64 // K^-1 (y - mean)
	chol     *linalg.Cholesky
	meanY    float64

	// rxs is the pre-rounded training matrix, maintained only on GPs built
	// through Extend when the kernel carries the Eq. 3 rounding transform; it
	// keeps the extension's kernel-column computation allocation-free.
	// Immutable after construction.
	rxs [][]float64

	// gen names the factorization's lineage: Fit stamps a fresh one, and
	// Extend and WithTargets inherit it. Within a generation the kernel and
	// noise are fixed, so row i of the factor depends only on xs[0..i] —
	// the invariant CellCache keeps its rows by.
	gen uint64
}

// generations hands out GP generations.
var generations atomic.Uint64

// Fit conditions a GP with the given kernel and observation noise variance on
// the data. The targets are centered on their mean internally so the prior
// mean matches the data level.
func Fit(kernel Kernel, noiseVar float64, xs [][]float64, ys []float64) (*GP, error) {
	if len(xs) == 0 {
		return nil, errors.New("gp: no training data")
	}
	if len(xs) != len(ys) {
		return nil, errors.New("gp: xs/ys length mismatch")
	}
	if noiseVar < 0 {
		return nil, errors.New("gp: negative noise variance")
	}
	d := kernel.Dim()
	for i, x := range xs {
		if len(x) != d {
			return nil, fmt.Errorf("gp: point %d has dim %d, kernel wants %d", i, len(x), d)
		}
	}
	n := len(xs)
	meanY := 0.0
	for _, y := range ys {
		if math.IsNaN(y) || math.IsInf(y, 0) {
			return nil, errors.New("gp: non-finite target")
		}
		meanY += y
	}
	meanY /= float64(n)

	k := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := kernel.Eval(xs[i], xs[j])
			k.Set(i, j, v)
			k.Set(j, i, v)
		}
		k.Set(i, i, k.At(i, i)+noiseVar+jitter)
	}
	chol, err := linalg.NewCholesky(k)
	if err != nil {
		return nil, fmt.Errorf("gp: covariance not PD (duplicate points with zero noise?): %w", err)
	}
	centered := make([]float64, n)
	for i, y := range ys {
		centered[i] = y - meanY
	}
	// Copy the training inputs so later mutation by the caller cannot
	// corrupt the posterior.
	xcopy := make([][]float64, n)
	for i, x := range xs {
		xcopy[i] = append([]float64(nil), x...)
	}
	return &GP{
		kernel:   kernel,
		noiseVar: noiseVar,
		xs:       xcopy,
		ys:       append([]float64(nil), ys...),
		centered: centered,
		alpha:    chol.SolveVec(centered),
		chol:     chol,
		meanY:    meanY,
		gen:      generations.Add(1),
	}, nil
}

// Extend returns a GP conditioned on this GP's training set plus the single
// new observation (x, y), without re-selecting hyper-parameters: the kernel
// and noise variance carry over and the existing Cholesky factorization is
// extended by one rank-1 bordered row (O(n^2)) instead of being rebuilt from
// scratch (O(n^3)). The result is numerically identical to
// Fit(g.Kernel(), g.NoiseVar(), xs+[x], ys+[y]) — the appended factor row is
// computed by the same forward substitution a full factorization would run —
// which the equivalence tests pin down to bit level. The receiver is not
// modified; speculative liar chains branch freely from one posterior.
func (g *GP) Extend(x []float64, y float64) (*GP, error) {
	d := g.kernel.Dim()
	if len(x) != d {
		return nil, fmt.Errorf("gp: extend point has dim %d, kernel wants %d", len(x), d)
	}
	if math.IsNaN(y) || math.IsInf(y, 0) {
		return nil, errors.New("gp: non-finite target")
	}
	n := len(g.xs)

	// The kernel column against the existing training set. With the rounding
	// transform the inner kernel is evaluated against the pre-rounded matrix
	// (bit-identical, rounding is idempotent) so no per-pair round buffers
	// are allocated.
	kcol := make([]float64, n)
	inner, rounds := unwrapRounding(g.kernel)
	var q []float64
	var rxs [][]float64
	if rounds {
		q = roundVec(x)
		rxs = g.rxs
		if rxs == nil {
			rxs = make([][]float64, n, n+1)
			for i, xi := range g.xs {
				rxs[i] = roundVec(xi)
			}
		}
		for i, ri := range rxs[:n] {
			kcol[i] = inner.Eval(q, ri)
		}
	} else {
		for i, xi := range g.xs {
			kcol[i] = inner.Eval(x, xi)
		}
	}
	selfVar := inner.Eval(orDefault(q, x), orDefault(q, x)) + g.noiseVar + jitter

	chol := g.chol.Clone()
	if err := chol.Extend(kcol, selfVar); err != nil {
		return nil, fmt.Errorf("gp: extended covariance not PD (duplicate point with zero noise?): %w", err)
	}

	xs := make([][]float64, n+1)
	copy(xs, g.xs)
	xs[n] = append([]float64(nil), x...)
	ys := make([]float64, n+1)
	copy(ys, g.ys)
	ys[n] = y

	g2 := &GP{
		kernel:   g.kernel,
		noiseVar: g.noiseVar,
		xs:       xs,
		ys:       ys,
		chol:     chol,
		gen:      g.gen,
	}
	if rounds {
		g2.rxs = append(rxs[:n:n], q)
	}
	g2.recondition()
	return g2, nil
}

// WithTargets returns a GP over the same inputs, kernel, and noise but with
// replaced target values. The covariance factorization depends only on the
// inputs, so it is shared; only the mean, centering, and alpha are recomputed
// (O(n^2)). It is the cheap path for re-observations, where an existing
// configuration's objective value is replaced in place.
func (g *GP) WithTargets(ys []float64) (*GP, error) {
	if len(ys) != len(g.xs) {
		return nil, errors.New("gp: WithTargets length mismatch")
	}
	for _, y := range ys {
		if math.IsNaN(y) || math.IsInf(y, 0) {
			return nil, errors.New("gp: non-finite target")
		}
	}
	g2 := &GP{
		kernel:   g.kernel,
		noiseVar: g.noiseVar,
		xs:       g.xs,
		ys:       append([]float64(nil), ys...),
		chol:     g.chol,
		rxs:      g.rxs,
		gen:      g.gen,
	}
	g2.recondition()
	return g2, nil
}

// recondition recomputes meanY, the centered targets, and alpha from ys and
// the factorization, with the exact summation order Fit uses.
func (g *GP) recondition() {
	meanY := 0.0
	for _, y := range g.ys {
		meanY += y
	}
	meanY /= float64(len(g.ys))
	centered := make([]float64, len(g.ys))
	for i, y := range g.ys {
		centered[i] = y - meanY
	}
	g.meanY = meanY
	g.centered = centered
	g.alpha = g.chol.SolveVec(centered)
}

// unwrapRounding strips any Rounding wrappers, reporting whether one was
// present.
func unwrapRounding(k Kernel) (Kernel, bool) {
	rounds := false
	for {
		r, ok := k.(Rounding)
		if !ok {
			return k, rounds
		}
		k = r.Inner
		rounds = true
	}
}

func orDefault(a, b []float64) []float64 {
	if a != nil {
		return a
	}
	return b
}

// N returns the number of training points.
func (g *GP) N() int { return len(g.xs) }

// Kernel returns the fitted covariance kernel.
func (g *GP) Kernel() Kernel { return g.kernel }

// NoiseVar returns the observation-noise variance the GP was conditioned
// with. Together with Kernel it lets a caller re-condition on extended data
// (e.g. constant-liar batch proposals) without re-running hyper-parameter
// selection.
func (g *GP) NoiseVar() float64 { return g.noiseVar }

// Predict returns the posterior mean and variance at x. The variance is the
// epistemic (latent-function) variance, excluding observation noise, and is
// clamped at zero. CellCache returns the same bits from cached rows.
func (g *GP) Predict(x []float64) (mean, variance float64) {
	if len(x) != g.kernel.Dim() {
		panic("gp: predict dimension mismatch")
	}
	n := len(g.xs)
	kstar := make([]float64, n)
	for i, xi := range g.xs {
		kstar[i] = g.kernel.Eval(x, xi)
	}
	ss := g.solveRows(kstar, make([]float64, n), 0, 0)
	return g.moments(kstar, g.kernel.Eval(x, x), ss)
}

// solveRows extends the forward solve w = L⁻¹k* from its first `from`
// entries to all n, given ss = ‖w[:from]‖², and returns ‖w‖².
func (g *GP) solveRows(kstar, w []float64, from int, ss float64) float64 {
	for i := from; i < len(kstar); i++ {
		w[i] = g.chol.ForwardStep(w, i, kstar[i])
	}
	return addSquares(ss, w[from:len(kstar)])
}

// addSquares returns ss + Σ v², summed in order.
func addSquares(ss float64, w []float64) float64 {
	for _, v := range w {
		ss += v * v
	}
	return ss
}

// moments returns the posterior mean meanY + k*·α and the variance
// k(q,q) − ‖L⁻¹k*‖² (GPML Alg. 2.1), clamped at zero, from a full K* row,
// k(q,q) and ss = ‖L⁻¹k*‖².
func (g *GP) moments(kstar []float64, kqq, ss float64) (mean, variance float64) {
	mean = g.meanY + linalg.Dot(kstar, g.alpha)
	variance = kqq - ss
	if variance < 0 {
		variance = 0
	}
	return mean, variance
}

// LogMarginalLikelihood returns log p(y | X, kernel, noise) of the fitted
// data under the centered model.
func (g *GP) LogMarginalLikelihood() float64 {
	n := float64(len(g.xs))
	quad := linalg.Dot(g.centered, g.alpha)
	return -0.5*quad - 0.5*g.chol.LogDet() - 0.5*n*math.Log(2*math.Pi)
}
