package gp

import (
	"math"
	"slices"
)

// cellCacheBytes caps a CellCache's per-slot storage. Like the acquisition
// scan's worker threshold it is a fixed internal constant, not a knob: the
// paper's grids (495–1,188 cells) need under 5 MB even at 256 training
// rows, and a grid that outgrows the budget keeps working — its overflow
// cells are solved from row 0 on every scan, on the same code path.
const cellCacheBytes = 16 << 20

// CellCache makes a BO acquisition scan cost O(cells·n) instead of
// O(cells·n²). For every grid cell it scans, it keeps the kernel row
// k* = K(q, X), the forward-solve prefix w = L⁻¹k*, the running sum ‖w‖²
// and k(q,q). Row i of the Cholesky factor L depends only on the kernel,
// the noise and the training inputs xs[0..i] — never on the targets — so
// between hyper-parameter re-tunes the cached entries stay valid while the
// posterior grows by Extend, changes targets by WithTargets, or is rolled
// back to a shorter input prefix (a constant-liar chain discarding its
// lies). A scan then brings each cell up to date with one kernel
// evaluation and one forward-substitution step per new training row, and
// the mean meanY + k*·α costs one O(n) dot product.
//
// Predictions are bit-equal to GP.Predict: both run the same forward step
// and the same variance formula k(q,q) − ‖L⁻¹k*‖² (Rasmussen & Williams,
// GPML Alg. 2.1), and the fuzz target FuzzCellCache pins it.
//
// Storage is one slab with a fixed row capacity (stride) per slot. Slots
// are handed out lazily to the cells a scan visits; the slab grows by
// doubling, and the stride doubles when the training set outgrows it.
type CellCache struct {
	dim int

	// The posterior the cached rows belong to.
	g      *GP
	kernel Kernel // g's kernel with the rounding transform unwrapped
	rounds bool
	rx     []float64 // g's training inputs, pre-rounded when rounds, dim per row

	slotOf []int32   // per cell: its slot or -1; nil when the grid is too large to index
	cellOf []int32   // per slot: its cell
	rows   []int32   // per slot: leading entries of k* and w that are current
	ss     []float64 // per slot: ‖w[:rows]‖²
	kqq    []float64 // per slot: k(q,q), valid while rows > 0
	q      []float64 // per slot: the (rounded) query point, dim entries
	stride int       // per-slot row capacity, a power of two
	slab   []float64 // per slot: stride k* entries, then stride w entries
}

// NewCellCache returns an empty cache over a grid of cells points in dim
// dimensions. It allocates only the cell index (4 bytes a cell); slots and
// rows come with the first scans.
func NewCellCache(cells, dim int) *CellCache {
	c := &CellCache{dim: dim}
	if 4*cells <= cellCacheBytes/4 {
		c.slotOf = make([]int32, cells)
		for i := range c.slotOf {
			c.slotOf[i] = -1
		}
	}
	return c
}

// Sync brings the cache to the posterior g before a scan. When g shares the
// synced posterior's generation (see GP.gen), cached rows survive up to the
// longest common prefix of the two training-input sequences; otherwise
// every cell restarts from row 0. open reports the cells the scan will
// visit: those without a slot get one while the byte budget allows. Sync
// must not run concurrently with Predict.
func (c *CellCache) Sync(g *GP, open func(cell int) bool) {
	if g.kernel.Dim() != c.dim {
		panic("gp: cell cache dimension mismatch")
	}
	keep := 0
	if c.g != nil && c.g.gen == g.gen {
		keep = commonPrefix(c.g.xs, g.xs)
	}
	c.g = g
	c.kernel, c.rounds = unwrapRounding(g.kernel)
	c.rx = c.rx[:keep*c.dim]
	for _, x := range g.xs[keep:] {
		for _, v := range x {
			if c.rounds {
				v = math.Round(v)
			}
			c.rx = append(c.rx, v)
		}
	}
	for s, r := range c.rows {
		if int(r) > keep {
			c.rows[s] = int32(keep)
			c.ss[s] = addSquares(0, c.w(s)[:keep])
		}
	}
	if c.slotOf == nil {
		return
	}
	if n := len(g.xs); n > c.stride {
		c.grow(n, open)
	}
	c.assign(open)
}

// commonPrefix returns how many leading inputs a and b share bit for bit.
func commonPrefix(a, b [][]float64) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if !slices.EqualFunc(a[i], b[i], func(x, y float64) bool {
			return math.Float64bits(x) == math.Float64bits(y)
		}) {
			return i
		}
	}
	return n
}

// slotBytes is the storage one slot takes at the given stride.
func (c *CellCache) slotBytes(stride int) int { return 16*stride + 8*c.dim + 24 }

// maxSlots is how many slots fit the byte budget at the current stride.
func (c *CellCache) maxSlots() int { return cellCacheBytes / c.slotBytes(c.stride) }

// grow doubles the stride until it holds n rows and re-lays out the slab,
// keeping only the slots of cells that are still open — cells pruned or
// sampled since they were slotted are not scanned again — while the budget
// at the new stride allows. Released cells get a fresh slot if they reopen.
func (c *CellCache) grow(n int, open func(cell int) bool) {
	old := c.stride
	if c.stride == 0 {
		c.stride = 16
	}
	for c.stride < n {
		c.stride *= 2
	}
	limit, d := c.maxSlots(), c.dim
	keep := 0
	for _, cell := range c.cellOf {
		if keep < limit && open(int(cell)) {
			keep++
		}
	}
	slab := make([]float64, 2*c.stride*keep)
	kept := 0
	for s, cell := range c.cellOf {
		if kept == keep || !open(int(cell)) {
			c.slotOf[cell] = -1
			continue
		}
		r := int(c.rows[s])
		src, dst := c.slab[2*old*s:], slab[2*c.stride*kept:]
		copy(dst[:r], src[:r])
		copy(dst[c.stride:c.stride+r], src[old:old+r])
		c.slotOf[cell] = int32(kept)
		c.cellOf[kept], c.rows[kept], c.ss[kept], c.kqq[kept] = cell, c.rows[s], c.ss[s], c.kqq[s]
		copy(c.q[kept*d:kept*d+d], c.q[s*d:s*d+d])
		kept++
	}
	c.cellOf, c.rows, c.ss, c.kqq = c.cellOf[:kept], c.rows[:kept], c.ss[:kept], c.kqq[:kept]
	c.q = c.q[:kept*d]
	c.slab = slab
}

// assign gives a slot to every open cell that lacks one, in cell order,
// while the budget allows, then grows the slab to cover the new slots.
func (c *CellCache) assign(open func(cell int) bool) {
	limit := c.maxSlots()
	for cell, s := range c.slotOf {
		if len(c.cellOf) >= limit {
			break
		}
		if s >= 0 || !open(cell) {
			continue
		}
		c.slotOf[cell] = int32(len(c.cellOf))
		c.cellOf = append(c.cellOf, int32(cell))
		c.rows = append(c.rows, 0)
		c.ss = append(c.ss, 0)
		c.kqq = append(c.kqq, 0)
		c.q = append(c.q, make([]float64, c.dim)...)
	}
	need := 2 * c.stride * len(c.cellOf)
	if need > cap(c.slab) {
		grown := make([]float64, len(c.slab), min(max(2*cap(c.slab), need), 2*c.stride*limit))
		copy(grown, c.slab)
		c.slab = grown
	}
	c.slab = c.slab[:need]
}

// w returns slot s's forward-solve storage.
func (c *CellCache) w(s int) []float64 {
	off := (2*s + 1) * c.stride
	return c.slab[off : off+c.stride]
}

// CellScanner predicts grid cells from a synced CellCache for one
// goroutine; it owns the scratch rows of cells that have no slot.
type CellScanner struct {
	c   *CellCache
	buf []float64
}

// Scanner returns a prediction handle for one goroutine of a scan.
func (c *CellCache) Scanner() CellScanner { return CellScanner{c: c} }

// Predict returns the posterior mean and variance at grid cell cell, whose
// coordinates are x — bit-equal to GP.Predict(x) on the synced posterior.
// Scanners may run concurrently as long as they predict distinct cells.
func (s *CellScanner) Predict(cell int, x []float64) (mean, variance float64) {
	c := s.c
	n, d := len(c.g.xs), c.dim
	if len(x) != d {
		panic("gp: predict dimension mismatch")
	}
	slot := -1
	if c.slotOf != nil {
		slot = int(c.slotOf[cell])
	}
	var q, kstar, w []float64
	rows, ss, kqq := 0, 0.0, 0.0
	if slot >= 0 {
		q = c.q[slot*d : slot*d+d]
		off := 2 * slot * c.stride
		kstar, w = c.slab[off:off+n], c.slab[off+c.stride:off+c.stride+n]
		rows, ss, kqq = int(c.rows[slot]), c.ss[slot], c.kqq[slot]
	} else {
		if len(s.buf) < d+2*n {
			s.buf = make([]float64, d+2*n)
		}
		q, kstar, w = s.buf[:d], s.buf[d:d+n], s.buf[d+n:d+2*n]
	}
	if rows == 0 {
		for i, v := range x {
			if c.rounds {
				v = math.Round(v)
			}
			q[i] = v
		}
		kqq = c.kernel.Eval(q, q)
	}
	if rows < n {
		for i := rows; i < n; i++ {
			kstar[i] = c.kernel.Eval(q, c.rx[i*d:i*d+d])
		}
		ss = c.g.solveRows(kstar, w, rows, ss)
		if slot >= 0 {
			c.rows[slot], c.ss[slot], c.kqq[slot] = int32(n), ss, kqq
		}
	}
	return c.g.moments(kstar, kqq, ss)
}
