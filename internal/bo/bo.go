// Package bo implements the Bayesian-Optimization engine at Ribbon's core
// (Sec. 4): a Gaussian-Process surrogate (internal/gp) over an integer
// configuration grid, an Expected-Improvement acquisition function, and a
// constraint hook through which Ribbon's active pruning removes
// configurations from consideration.
//
// The optimizer maximizes an unknown objective over the box
// {0..bounds[0]} x ... x {0..bounds[d-1]}. Candidates are enumerated
// explicitly — the paper's search spaces hold on the order of a thousand
// configurations — so acquisition maximization is exact over the grid.
//
// The candidate set is indexed: every grid point has a dense integer index
// (row-major over the box), and a per-cell state byte records whether it is
// still open, already sampled, or permanently disallowed. Suggest therefore
// never re-enumerates the grid recursively or builds per-candidate string
// keys; it scans the state array, optionally sharded across goroutines with
// deterministic index-ordered tie-breaking.
//
// Two batch-proposal mechanisms feed parallel search:
//
//   - SuggestTopK ranks the open candidates by EI in a single sharded scan
//     (batched q-EI): the head is exactly Suggest's argmax and the runner-ups
//     are prefetch candidates. It costs one scan regardless of batch size and
//     is the right choice when evaluations are cheap.
//   - Speculate runs the constant-liar chain: a lie is recorded at each
//     pending point and the acquisition is re-maximized, predicting the
//     points the serial trajectory would request next. Each step extends the
//     GP factorization by one rank-1 update and each scan only adds one
//     cached row per cell, so a proposal costs O(cells·n).
//
// With Options.Incremental set, the surrogate itself is maintained
// incrementally: hyper-parameters are re-selected only at observation-count
// boundaries, and between boundaries Observe extends the cached GP by rank-1
// Cholesky updates instead of refitting from scratch.
//
// Every scan predicts through a gp.CellCache owned by the optimizer: each
// open cell keeps its kernel row and forward solve across observations, so
// between re-tunes a scan costs O(cells·n) rather than O(cells·n²), with
// the bits GP.Predict would return.
package bo

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"ribbon/internal/gp"
	"ribbon/internal/stats"
)

// Observation is one evaluated configuration with its objective value.
type Observation struct {
	X []int
	Y float64
}

// Options configures the optimizer.
type Options struct {
	// Rounding applies the paper's Eq. 3 rounding kernel. Ribbon keeps it
	// on; the Fig. 7 ablation turns it off.
	Rounding bool
	// Xi is the Expected-Improvement exploration offset; 0.01 when zero.
	Xi float64
	// NoiseRatio is the GP observation-noise ratio; see gp.HyperOptions.
	NoiseRatio float64
	// Seed drives deterministic tie-breaking and random fallbacks.
	Seed uint64
	// Incremental amortizes hyper-parameter selection: the GP is re-tuned
	// from scratch on every observation only while the training set is small
	// (n <= 8), then only when it has grown ~1.5x since the last tune.
	// Between boundaries Observe extends the cached factorization by O(n^2)
	// rank-1 Cholesky updates (gp.Extend / gp.WithTargets) instead of paying
	// the O(n^3)-per-candidate FitAuto search. The schedule depends only on
	// the observation count, so the resulting trajectory is deterministic.
	Incremental bool
}

// Per-cell candidate states.
const (
	// candOpen cells are eligible acquisition candidates.
	candOpen uint8 = iota
	// candSampled cells hold an observation (real or speculative lie).
	candSampled
	// candDead cells failed the constraint predicate once; the predicate
	// contract (see SetConstraint) makes that permanent, so they are never
	// re-tested.
	candDead
)

// maxGridCells bounds the indexed candidate set. A grid beyond this size
// cannot be exhaustively scanned per Suggest anyway; New panics rather than
// letting the optimizer thrash.
const maxGridCells = 1 << 28

// Optimizer runs GP-EI Bayesian optimization over an integer grid.
type Optimizer struct {
	bounds  []int
	strides []int
	space   int
	opts    Options
	rng     *stats.RNG
	allowed func(x []int) bool

	obs []Observation
	// xs/ys mirror obs as float training data, maintained incrementally so
	// Surrogate never rebuilds the design matrix.
	xs [][]float64
	ys []float64
	// obsIdx maps a grid index to its position in obs; offGrid does the
	// same, keyed by keyOf, for observations outside the box.
	obsIdx  map[int]int
	offGrid map[string]int
	// state is the indexed candidate set, one byte per grid cell.
	state []uint8

	// version counts observation mutations; surrogate caching keys on it.
	version    int
	surrogate  *gp.GP
	surErr     error
	surVersion int
	surValid   bool

	// Incremental-mode bookkeeping: tunedN is the observation count at the
	// last hyper-parameter re-tune and tuneCount how many re-tunes have
	// run; surObs is the number of rows the cached surrogate is
	// conditioned on, and surDirty records whether a target among those
	// rows was replaced since (forcing a WithTargets refresh).
	tunedN    int
	tuneCount int
	surObs    int
	surDirty  bool

	// cache holds every scanned cell's kernel row and forward solve across
	// scans; isOpen is the cell predicate its Sync assigns slots by. Both
	// are created by the first scan.
	cache  *gp.CellCache
	isOpen func(cell int) bool

	scratch []int // decode scratch for the serial paths
}

// New creates an optimizer over the inclusive box [0, bounds[i]] per
// dimension. It panics on empty or negative bounds, and on grids larger
// than ~268M cells (an exhaustive acquisition scan is infeasible there).
func New(bounds []int, opts Options) *Optimizer {
	if len(bounds) == 0 {
		panic("bo: empty bounds")
	}
	for i, b := range bounds {
		if b < 0 {
			panic(fmt.Sprintf("bo: negative bound at dim %d", i))
		}
	}
	space := 1
	strides := make([]int, len(bounds))
	for i := len(bounds) - 1; i >= 0; i-- {
		strides[i] = space
		w := bounds[i] + 1
		if space > maxGridCells/w {
			panic(fmt.Sprintf("bo: grid over bounds %v exceeds %d cells", bounds, maxGridCells))
		}
		space *= w
	}
	if opts.Xi == 0 {
		opts.Xi = 0.01
	}
	return &Optimizer{
		bounds:  append([]int(nil), bounds...),
		strides: strides,
		space:   space,
		opts:    opts,
		rng:     stats.Derive(opts.Seed, "bo"),
		obsIdx:  make(map[int]int),
		offGrid: make(map[string]int),
		state:   make([]uint8, space),
		scratch: make([]int, len(bounds)),
	}
}

// Bounds returns a copy of the per-dimension upper bounds.
func (o *Optimizer) Bounds() []int { return append([]int(nil), o.bounds...) }

// SpaceSize returns the number of grid configurations.
func (o *Optimizer) SpaceSize() int { return o.space }

// SetConstraint installs the prune predicate: Suggest only returns
// configurations for which allowed(x) is true. A nil predicate allows all.
//
// The predicate must be pure and monotone: it may be called concurrently
// from the sharded acquisition scan, and once it returns false for a point
// the optimizer marks that point dead and never asks again. Ribbon's prune
// set and cost ceiling satisfy this — pruned regions only grow and the
// incumbent cost only falls.
func (o *Optimizer) SetConstraint(allowed func(x []int) bool) { o.allowed = allowed }

// gridIndex returns the dense index of x, or ok=false when x lies outside
// the box.
func (o *Optimizer) gridIndex(x []int) (int, bool) {
	idx := 0
	for i, v := range x {
		if v < 0 || v > o.bounds[i] {
			return 0, false
		}
		idx += v * o.strides[i]
	}
	return idx, true
}

// decode writes the coordinates of the grid cell idx into x and returns it.
func (o *Optimizer) decode(idx int, x []int) []int {
	for i := len(o.bounds) - 1; i >= 0; i-- {
		w := o.bounds[i] + 1
		x[i] = idx % w
		idx /= w
	}
	return x
}

// lookup returns the obs position holding x, if any.
func (o *Optimizer) lookup(x []int) (int, bool) {
	if idx, ok := o.gridIndex(x); ok {
		i, ok := o.obsIdx[idx]
		return i, ok
	}
	i, ok := o.offGrid[keyOf(x)]
	return i, ok
}

// Observe records an evaluated configuration. Re-observing a configuration
// replaces its value in O(1) via the key index (the evaluator is
// deterministic, so values agree; after a load change Ribbon replaces
// estimates with measurements).
func (o *Optimizer) Observe(x []int, y float64) {
	if len(x) != len(o.bounds) {
		panic("bo: observation dimension mismatch")
	}
	if math.IsNaN(y) || math.IsInf(y, 0) {
		panic("bo: non-finite objective value")
	}
	o.version++
	if i, ok := o.lookup(x); ok {
		o.obs[i].Y = y
		o.ys[i] = y
		if i < o.surObs {
			o.surDirty = true
		}
		return
	}
	o.insert(x, y)
}

// insert appends a fresh observation and indexes it.
func (o *Optimizer) insert(x []int, y float64) {
	pos := len(o.obs)
	if idx, ok := o.gridIndex(x); ok {
		o.obsIdx[idx] = pos
		o.state[idx] = candSampled
	} else {
		o.offGrid[keyOf(x)] = pos
	}
	o.obs = append(o.obs, Observation{X: append([]int(nil), x...), Y: y})
	o.xs = append(o.xs, toFloat(x))
	o.ys = append(o.ys, y)
}

// Observations returns a copy of the recorded observations.
func (o *Optimizer) Observations() []Observation {
	out := make([]Observation, len(o.obs))
	for i, ob := range o.obs {
		out[i] = Observation{X: append([]int(nil), ob.X...), Y: ob.Y}
	}
	return out
}

// Best returns the observation with the highest objective value. The second
// return is false when nothing has been observed.
func (o *Optimizer) Best() (Observation, bool) {
	if len(o.obs) == 0 {
		return Observation{}, false
	}
	best := o.obs[0]
	for _, ob := range o.obs[1:] {
		if ob.Y > best.Y {
			best = ob
		}
	}
	return Observation{X: append([]int(nil), best.X...), Y: best.Y}, true
}

// bestY is Best without the defensive copy, for internal hot paths.
func (o *Optimizer) bestY() float64 {
	best := o.ys[0]
	for _, y := range o.ys[1:] {
		if y > best {
			best = y
		}
	}
	return best
}

// keyOf encodes an integer point as a collision-free map key: every
// coordinate contributes its full 64-bit value, so arbitrarily large bounds
// cannot alias (the old 16-bit truncation silently collided beyond 65535).
// It is only needed for observations outside the box; in-grid points key by
// their dense grid index.
func keyOf(x []int) string {
	b := make([]byte, 8*len(x))
	for i, v := range x {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(int64(v)))
	}
	return string(b)
}

// Surrogate fits the GP posterior to the current observations. It fails
// with fewer than two observations. The fit is cached and invalidated by
// Observe, so repeated calls between observations are free. With
// Options.Incremental the refresh extends the previous posterior by rank-1
// updates except at hyper-parameter re-tune boundaries (see needRetune).
func (o *Optimizer) Surrogate() (*gp.GP, error) {
	if o.surValid && o.surVersion == o.version {
		return o.surrogate, o.surErr
	}
	o.surrogate, o.surErr = o.fitSurrogate()
	o.surVersion = o.version
	o.surValid = true
	o.surObs = len(o.obs)
	o.surDirty = false
	return o.surrogate, o.surErr
}

// retuneDenseTunes is how many re-tunes happen on every new observation
// before the schedule starts amortizing: the first few hyper-parameter
// selections swing a lot as data arrives — whether the optimizer started
// empty or warm-started from a large estimated design — and full fits are
// still cheap that early in a search.
const retuneDenseTunes = 7

// needRetune reports whether the amortized schedule calls for a fresh
// FitAuto at n observations. The first retuneDenseTunes tunes happen on
// every new observation; after that the surrogate is re-tuned only once the
// training set has grown by max(2, tunedN/2) rows (~1.5x) since the last
// tune, so the total tuning work over a search of N evaluations is O(log N)
// fits instead of N. The decision depends only on observation counts —
// never on timing — keeping the trajectory deterministic.
func (o *Optimizer) needRetune(n int) bool {
	if o.tuneCount < retuneDenseTunes {
		return n != o.tunedN
	}
	grow := o.tunedN / 2
	if grow < 2 {
		grow = 2
	}
	return n >= o.tunedN+grow
}

func (o *Optimizer) fitSurrogate() (*gp.GP, error) {
	n := len(o.obs)
	if n < 2 {
		return nil, errors.New("bo: need at least two observations for a surrogate")
	}
	if o.opts.Incremental && !o.needRetune(n) {
		if g, err := o.extendSurrogate(n); err == nil {
			return g, nil
		}
		// Any incremental failure (e.g. a numerically non-PD extension)
		// falls through to a deterministic full refit.
	}
	g, err := gp.FitAuto(o.xs, o.ys, gp.HyperOptions{
		Rounding:   o.opts.Rounding,
		NoiseRatio: o.opts.NoiseRatio,
	})
	if err == nil {
		o.tunedN = n
		o.tuneCount++
	}
	return g, err
}

// extendSurrogate refreshes the cached posterior without re-tuning: replaced
// targets are folded in by re-conditioning on the shared factorization, then
// each appended observation extends the factorization by one rank-1 row.
func (o *Optimizer) extendSurrogate(n int) (*gp.GP, error) {
	if o.surrogate == nil || o.surErr != nil || o.surObs < 2 || o.surObs > n {
		return nil, errors.New("bo: no extendable surrogate")
	}
	g := o.surrogate
	var err error
	if o.surDirty {
		if g, err = g.WithTargets(o.ys[:o.surObs]); err != nil {
			return nil, err
		}
	}
	for i := o.surObs; i < n; i++ {
		if g, err = g.Extend(o.xs[i], o.ys[i]); err != nil {
			return nil, err
		}
	}
	return g, nil
}

func toFloat(x []int) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = float64(v)
	}
	return out
}

// ExpectedImprovement computes EI(x) for a maximization problem given the
// surrogate posterior and the incumbent best value.
func ExpectedImprovement(g *gp.GP, x []float64, best, xi float64) float64 {
	mean, variance := g.Predict(x)
	return eiValue(mean, variance, best, xi)
}

// eiValue is the EI formula on an already-computed posterior.
func eiValue(mean, variance, best, xi float64) float64 {
	improve := mean - best - xi
	sigma := math.Sqrt(variance)
	if sigma < 1e-12 {
		return math.Max(0, improve)
	}
	z := improve / sigma
	return improve*normCDF(z) + sigma*normPDF(z)
}

func normCDF(z float64) float64 { return 0.5 * (1 + math.Erf(z/math.Sqrt2)) }
func normPDF(z float64) float64 { return math.Exp(-z*z/2) / math.Sqrt(2*math.Pi) }

// Suggest returns the next configuration to evaluate: the open, allowed
// grid point with the highest Expected Improvement (ties break to the
// lowest grid index, i.e. the first point in enumeration order). Before a
// surrogate can be fitted (fewer than two observations) it falls back to a
// uniformly random open allowed point. The second return is false when the
// whole grid is exhausted or pruned.
func (o *Optimizer) Suggest() ([]int, bool) {
	g, err := o.Surrogate()
	if err != nil {
		return o.randomCandidate()
	}
	idx := o.argmaxEI(g, o.bestY())
	if idx < 0 {
		return nil, false
	}
	return o.decode(idx, make([]int, len(o.bounds))), true
}

// scanMinCells is the candidate-count threshold below which the EI argmax
// scan stays serial: goroutine fan-out costs more than it saves.
const scanMinCells = 4096

func scanWorkers(cells int) int {
	w := runtime.GOMAXPROCS(0)
	if w > 8 {
		w = 8
	}
	if w < 2 || cells < scanMinCells {
		return 1
	}
	return w
}

// syncCache brings the cell cache to posterior g before a scan.
func (o *Optimizer) syncCache(g *gp.GP) {
	if o.cache == nil {
		o.cache = gp.NewCellCache(o.space, len(o.bounds))
		o.isOpen = func(cell int) bool { return o.state[cell] == candOpen }
	}
	o.cache.Sync(g, o.isOpen)
}

// argmaxEI returns the grid index of the open allowed candidate maximizing
// EI, or -1 when none remain. The scan syncs the cell cache to g once, then
// shards the index space across goroutines; shards touch disjoint cells, EI
// is computed per candidate from the same immutable posterior and the merge
// prefers the lowest index among equal maxima, so the result is
// bit-identical to the serial scan at any worker count. Candidates failing
// the constraint are marked dead so later scans skip them.
func (o *Optimizer) argmaxEI(g *gp.GP, bestY float64) int {
	o.syncCache(g)
	nw := scanWorkers(o.space)
	if nw == 1 {
		_, idx := o.scanShard(bestY, 0, o.space)
		return idx
	}
	eis := make([]float64, nw)
	idxs := make([]int, nw)
	var wg sync.WaitGroup
	chunk := (o.space + nw - 1) / nw
	for w := 0; w < nw; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > o.space {
			hi = o.space
		}
		if lo >= hi {
			eis[w], idxs[w] = math.Inf(-1), -1
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			eis[w], idxs[w] = o.scanShard(bestY, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	bestEI, bestIdx := math.Inf(-1), -1
	for w := 0; w < nw; w++ {
		// Shards cover ascending index ranges, so strictly-greater keeps
		// the lowest index among ties — the serial scan's argmax.
		if idxs[w] >= 0 && eis[w] > bestEI {
			bestEI, bestIdx = eis[w], idxs[w]
		}
	}
	return bestIdx
}

// scanShard scans grid cells [lo, hi) against the synced cell cache,
// returning the max EI and its index (-1 when the range holds no open
// allowed candidate). Ties keep the lowest index — the first hit of the
// ascending scan.
func (o *Optimizer) scanShard(bestY float64, lo, hi int) (float64, int) {
	pred := o.cache.Scanner()
	x := make([]int, len(o.bounds))
	xf := make([]float64, len(o.bounds))
	bestEI, bestIdx := math.Inf(-1), -1
	for idx := lo; idx < hi; idx++ {
		if o.state[idx] != candOpen {
			continue
		}
		o.decode(idx, x)
		if o.allowed != nil && !o.allowed(x) {
			o.state[idx] = candDead
			continue
		}
		for i, v := range x {
			xf[i] = float64(v)
		}
		mean, variance := pred.Predict(idx, xf)
		if ei := eiValue(mean, variance, bestY, o.opts.Xi); ei > bestEI {
			bestEI, bestIdx = ei, idx
		}
	}
	return bestEI, bestIdx
}

// eiCand is one ranked acquisition candidate.
type eiCand struct {
	ei  float64
	idx int
}

// SuggestTopK returns up to k open allowed configurations ranked by
// Expected Improvement — the batched q-EI proposal. The first element is
// bit-identical to what Suggest would return (same argmax, same
// lowest-index tie-break); the remainder are the runner-up candidates in
// rank order, which a prefetching caller treats as its best guesses for the
// following rounds. Unlike the constant-liar chain it costs a single
// sharded scan regardless of k. Before a surrogate exists it falls back to
// one uniformly random candidate, consuming the random stream exactly as
// Suggest would. The second return is false when the grid is exhausted.
func (o *Optimizer) SuggestTopK(k int) ([][]int, bool) {
	if k < 1 {
		k = 1
	}
	g, err := o.Surrogate()
	if err != nil {
		x, ok := o.randomCandidate()
		if !ok {
			return nil, false
		}
		return [][]int{x}, true
	}
	cands := o.topKEI(g, o.bestY(), k)
	if len(cands) == 0 {
		return nil, false
	}
	out := make([][]int, len(cands))
	for i, c := range cands {
		out[i] = o.decode(c.idx, make([]int, len(o.bounds)))
	}
	return out, true
}

// topKEI returns the k highest-EI open allowed candidates, ordered by EI
// descending with ties broken to the lowest grid index. The scan shards the
// index space exactly like argmaxEI; each shard keeps its own top-k list and
// the merge re-sorts the (at most workers*k) survivors, so the result is
// identical to a serial scan at any worker count, and element 0 is the
// argmaxEI winner.
func (o *Optimizer) topKEI(g *gp.GP, bestY float64, k int) []eiCand {
	o.syncCache(g)
	nw := scanWorkers(o.space)
	if nw == 1 {
		return o.scanShardTopK(bestY, 0, o.space, k)
	}
	parts := make([][]eiCand, nw)
	var wg sync.WaitGroup
	chunk := (o.space + nw - 1) / nw
	for w := 0; w < nw; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > o.space {
			hi = o.space
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			parts[w] = o.scanShardTopK(bestY, lo, hi, k)
		}(w, lo, hi)
	}
	wg.Wait()
	var all []eiCand
	for _, p := range parts {
		all = append(all, p...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].ei != all[j].ei {
			return all[i].ei > all[j].ei
		}
		return all[i].idx < all[j].idx
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// scanShardTopK scans grid cells [lo, hi) and returns up to k candidates
// ordered by (EI desc, index asc). The insertion keeps equal-EI candidates
// in ascending-index order because the scan itself ascends.
func (o *Optimizer) scanShardTopK(bestY float64, lo, hi, k int) []eiCand {
	pred := o.cache.Scanner()
	x := make([]int, len(o.bounds))
	xf := make([]float64, len(o.bounds))
	cands := make([]eiCand, 0, k+1)
	worst := math.Inf(-1)
	for idx := lo; idx < hi; idx++ {
		if o.state[idx] != candOpen {
			continue
		}
		o.decode(idx, x)
		if o.allowed != nil && !o.allowed(x) {
			o.state[idx] = candDead
			continue
		}
		for i, v := range x {
			xf[i] = float64(v)
		}
		mean, variance := pred.Predict(idx, xf)
		ei := eiValue(mean, variance, bestY, o.opts.Xi)
		if len(cands) == k && ei <= worst {
			continue
		}
		pos := len(cands)
		for pos > 0 && cands[pos-1].ei < ei {
			pos--
		}
		cands = append(cands, eiCand{})
		copy(cands[pos+1:], cands[pos:])
		cands[pos] = eiCand{ei: ei, idx: idx}
		if len(cands) > k {
			cands = cands[:k]
		}
		worst = cands[len(cands)-1].ei
	}
	return cands
}

// randomCandidate returns a uniformly random open allowed point via
// reservoir sampling over the candidate enumeration (index order, exactly
// the legacy recursive order).
func (o *Optimizer) randomCandidate() ([]int, bool) {
	x := o.scratch
	var pick []int
	n := 0
	for idx := 0; idx < o.space; idx++ {
		if o.state[idx] != candOpen {
			continue
		}
		o.decode(idx, x)
		if o.allowed != nil && !o.allowed(x) {
			o.state[idx] = candDead
			continue
		}
		n++
		if o.rng.IntN(n) == 0 {
			pick = append(pick[:0], x...)
		}
	}
	if pick == nil {
		return nil, false
	}
	return pick, true
}

// Speculate streams up to k configurations likely to follow once x (the
// pending suggestion) has been evaluated, chosen by the constant-liar batch
// rule: a lie is recorded at each pending point and the acquisition is
// re-maximized, without re-selecting hyper-parameters. The lie is the GP
// posterior mean (the "believer" member of the liar family) — the evaluator
// is deterministic, so the lie that best predicts the eventual observation
// maximizes the chance that speculative evaluations are the ones the serial
// trajectory will actually request. Each proposal is handed to emit as soon
// as it is known, so a prefetching caller can start work on the first
// (likeliest) one while the rest of the chain is still being computed; the
// returned slice collects them all.
//
// Speculate never touches the optimizer's random stream and rolls every lie
// back before returning, so the observable state — and therefore the search
// trajectory — is exactly as if it had never been called. The parallel
// search loop relies on that for bit-identical results at any worker count.
func (o *Optimizer) Speculate(x []int, k int, emit func([]int)) [][]int {
	if k <= 0 {
		return nil
	}
	g, err := o.Surrogate()
	if err != nil {
		// Fewer than two observations: the serial path would fall back to
		// the RNG, which speculation must not consume.
		return nil
	}

	preObs := len(o.obs)
	preVer := o.version
	preSur, preErr, preSurVer, preSurValid := o.surrogate, o.surErr, o.surVersion, o.surValid
	preSurObs, preSurDirty := o.surObs, o.surDirty
	type lieMark struct {
		grid int
		key  string
	}
	var marks []lieMark
	defer func() {
		for _, m := range marks {
			if m.key == "" {
				o.state[m.grid] = candOpen
				delete(o.obsIdx, m.grid)
			} else {
				delete(o.offGrid, m.key)
			}
		}
		o.obs = o.obs[:preObs]
		o.xs = o.xs[:preObs]
		o.ys = o.ys[:preObs]
		o.version = preVer
		o.surrogate, o.surErr, o.surVersion, o.surValid = preSur, preErr, preSurVer, preSurValid
		o.surObs, o.surDirty = preSurObs, preSurDirty
	}()

	chain := g
	xf := make([]float64, len(o.bounds))
	out := make([][]int, 0, k)
	cur := x
	for {
		if _, observed := o.lookup(cur); !observed {
			for i, v := range cur {
				xf[i] = float64(v)
			}
			// The lie is the posterior mean at the pending point, read
			// from the cell cache when the point lies on the grid.
			var lie float64
			idx, onGrid := o.gridIndex(cur)
			if onGrid {
				o.syncCache(chain)
				pred := o.cache.Scanner()
				lie, _ = pred.Predict(idx, xf)
			} else {
				lie, _ = chain.Predict(xf)
			}
			pos := len(o.obs)
			if onGrid {
				o.obsIdx[idx] = pos
				o.state[idx] = candSampled
				marks = append(marks, lieMark{grid: idx})
			} else {
				key := keyOf(cur)
				o.offGrid[key] = pos
				marks = append(marks, lieMark{key: key})
			}
			o.obs = append(o.obs, Observation{X: append([]int(nil), cur...), Y: lie})
			o.xs = append(o.xs, toFloat(cur))
			o.ys = append(o.ys, lie)
			o.version++
			// Conditioning on the lie extends the factorization by one
			// rank-1 row — numerically identical to refitting the same
			// kernel and noise on the extended data, at O(n^2) not O(n^3).
			g2, err := chain.Extend(o.xs[pos], lie)
			if err != nil {
				break
			}
			chain = g2
		}
		idx := o.argmaxEI(chain, o.bestY())
		if idx < 0 {
			break
		}
		nxt := o.decode(idx, make([]int, len(o.bounds)))
		out = append(out, nxt)
		if emit != nil {
			emit(nxt)
		}
		if len(out) >= k {
			break
		}
		// Continue the liar chain from the believed argmax.
		cur = nxt
	}
	return out
}

// SuggestContinuous maximizes EI over a fractional grid with the given step
// (e.g. 0.25), returning a real-valued point. It exists for the Fig. 7
// ablation: without the rounding kernel, the continuous acquisition
// optimizer repeatedly lands inside integer cells that were already sampled;
// with it, the acquisition is piecewise constant and the optimum snaps to
// unexplored cells.
func (o *Optimizer) SuggestContinuous(step float64) ([]float64, bool) {
	if step <= 0 || step > 1 {
		panic("bo: step must be in (0, 1]")
	}
	g, err := o.Surrogate()
	if err != nil {
		return nil, false
	}
	best, _ := o.Best()

	var argmax []float64
	maxEI := math.Inf(-1)
	x := make([]float64, len(o.bounds))
	var rec func(d int)
	rec = func(d int) {
		if d == len(x) {
			ei := ExpectedImprovement(g, x, best.Y, o.opts.Xi)
			if ei > maxEI {
				maxEI = ei
				argmax = append([]float64(nil), x...)
			}
			return
		}
		for v := 0.0; v <= float64(o.bounds[d])+1e-9; v += step {
			x[d] = v
			rec(d + 1)
		}
	}
	rec(0)
	if argmax == nil {
		return nil, false
	}
	return argmax, true
}
