package gp

import (
	"errors"
	"math"

	"ribbon/internal/linalg"
)

// HyperOptions configures automatic hyper-parameter selection.
type HyperOptions struct {
	// NoiseRatio is the observation-noise variance expressed as a
	// fraction of the fitted signal variance; 0.01 when zero.
	NoiseRatio float64
	// Rounding wraps the fitted Matern 5/2 kernel with the paper's Eq. 3
	// rounding transformation.
	Rounding bool
	// Sweeps is the number of coordinate-descent passes over the length
	// scales; 3 when zero.
	Sweeps int
	// MinLength/MaxLength bound the searched length scales; defaults
	// [0.25, 64].
	MinLength, MaxLength float64
}

func (o HyperOptions) withDefaults() HyperOptions {
	if o.NoiseRatio == 0 {
		o.NoiseRatio = 0.01
	}
	if o.Sweeps == 0 {
		o.Sweeps = 3
	}
	if o.MinLength == 0 {
		o.MinLength = 0.25
	}
	if o.MaxLength == 0 {
		o.MaxLength = 64
	}
	return o
}

// FitAuto selects per-dimension Matern 5/2 length scales and the signal
// variance by maximizing the concentrated log marginal likelihood, then
// returns the conditioned GP. The signal variance has a closed-form optimum
// given the correlation matrix (sigma^2* = y~^T C^-1 y~ / n), so the search
// runs only over length scales via coordinate descent on a multiplicative
// grid — cheap, derivative-free, and deterministic.
func FitAuto(xs [][]float64, ys []float64, opts HyperOptions) (*GP, error) {
	opts = opts.withDefaults()
	if len(xs) == 0 {
		return nil, errors.New("gp: no training data")
	}
	if len(xs) != len(ys) {
		return nil, errors.New("gp: xs/ys length mismatch")
	}
	d := len(xs[0])
	if d == 0 {
		return nil, errors.New("gp: zero-dimensional inputs")
	}

	// Initial guess: a quarter of the observed coordinate range per dim.
	ls := make([]float64, d)
	for j := 0; j < d; j++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, x := range xs {
			lo = math.Min(lo, x[j])
			hi = math.Max(hi, x[j])
		}
		ls[j] = clamp((hi-lo)/4, opts.MinLength, opts.MaxLength)
	}

	// The likelihood search evaluates the kernel O(n^2) times per candidate
	// length scale. Rounding.Eval would allocate two rounded copies per
	// call; rounding the inputs once up front is bit-identical (rounding is
	// idempotent and the correlation matrix only sees rounded points) and
	// keeps the whole search allocation-light. The target centering and the
	// triangular-solve scratch are likewise hoisted out of the loop.
	f := &fitter{pts: xs, centered: center(ys), solve: make([]float64, len(ys)), opts: opts,
		corr: linalg.NewMatrix(len(xs), len(xs))}
	if opts.Rounding {
		pts := make([][]float64, len(xs))
		for i, x := range xs {
			pts[i] = roundVec(x)
		}
		f.pts = pts
	}

	best := f.lml(ls)
	grid := []float64{0.25, 0.5, 1 / 1.5, 1, 1.5, 2, 4}
	for sweep := 0; sweep < opts.Sweeps; sweep++ {
		improved := false
		for j := 0; j < d; j++ {
			cur := ls[j]
			bestL := cur
			for _, fac := range grid {
				cand := clamp(cur*fac, opts.MinLength, opts.MaxLength)
				if cand == bestL {
					continue
				}
				ls[j] = cand
				if lml := f.lml(ls); lml > best+1e-12 {
					best = lml
					bestL = cand
					improved = true
				}
			}
			ls[j] = bestL
		}
		if !improved {
			break
		}
	}

	variance := f.variance(ls)
	kernel := Kernel(NewMatern52(variance, ls))
	if opts.Rounding {
		kernel = Rounding{Inner: kernel}
	}
	return Fit(kernel, opts.NoiseRatio*variance, xs, ys)
}

func clamp(v, lo, hi float64) float64 { return math.Max(lo, math.Min(hi, v)) }

// fitter carries the hoisted state of one FitAuto search: the (pre-rounded)
// inputs, the centered targets, a triangular-solve scratch vector, and the
// correlation matrix and factor every candidate length scale reuses.
type fitter struct {
	pts      [][]float64
	centered []float64
	solve    []float64
	opts     HyperOptions
	corr     *linalg.Matrix
	chol     linalg.Cholesky
}

// corrCholesky factors the unit-variance Matern correlation matrix plus the
// relative-noise diagonal for the given length scales. The fitter's points
// are pre-rounded when the rounding transform is on, so the unit kernel is
// evaluated directly. The factor is the fitter's own storage, valid until
// the next call.
func (f *fitter) corrCholesky(ls []float64) (*linalg.Cholesky, bool) {
	n := len(f.pts)
	unit := NewMatern52(1, ls)
	c := f.corr
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := unit.Eval(f.pts[i], f.pts[j])
			c.Set(i, j, v)
			c.Set(j, i, v)
		}
		c.Set(i, i, c.At(i, i)+f.opts.NoiseRatio+jitter)
	}
	return &f.chol, f.chol.Factor(c) == nil
}

// variance returns sigma^2* = y~^T C^-1 y~ / n (floored away from zero so
// degenerate constant data still yields a usable kernel).
func (f *fitter) variance(ls []float64) float64 {
	chol, ok := f.corrCholesky(ls)
	if !ok {
		return 1
	}
	quad := linalg.Dot(f.centered, chol.SolveVecInto(f.solve, f.centered))
	v := quad / float64(len(f.centered))
	if v < 1e-10 {
		v = 1e-10
	}
	return v
}

// lml evaluates the profile log marginal likelihood (variance maximized out)
// up to an additive constant.
func (f *fitter) lml(ls []float64) float64 {
	chol, ok := f.corrCholesky(ls)
	if !ok {
		return math.Inf(-1)
	}
	n := float64(len(f.centered))
	quad := linalg.Dot(f.centered, chol.SolveVecInto(f.solve, f.centered))
	v := quad / n
	if v < 1e-10 {
		v = 1e-10
	}
	return -0.5*n*math.Log(v) - 0.5*chol.LogDet()
}

func center(ys []float64) []float64 {
	m := 0.0
	for _, y := range ys {
		m += y
	}
	m /= float64(len(ys))
	out := make([]float64, len(ys))
	for i, y := range ys {
		out[i] = y - m
	}
	return out
}
