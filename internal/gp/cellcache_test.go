package gp

import (
	"math"
	"math/rand"
	"testing"
)

// sameBits reports whether two predictions agree bit for bit.
func sameBits(m1, v1, m2, v2 float64) bool {
	return math.Float64bits(m1) == math.Float64bits(m2) && math.Float64bits(v1) == math.Float64bits(v2)
}

// FuzzCellCache is the differential contract of the acquisition cache: over
// random grids and random sequences of Extend, WithTargets, refits (a new
// generation) and rollbacks to an earlier posterior (a liar chain dropping
// its lies, or a real observation replacing them), every cached (mean,
// variance) is bit-equal to GP.Predict on the synced posterior — with the
// Eq. 3 rounding kernel on and off, for cells that hold a slot and cells
// solved in scratch, and for cells that skip scans and fall behind.
func FuzzCellCache(f *testing.F) {
	f.Add(int64(1), true, []byte{0, 0, 1, 3, 0, 2, 0, 4, 0})
	f.Add(int64(2), false, []byte{0, 3, 3, 0, 0, 1, 2, 0, 3, 0})
	f.Add(int64(3), true, []byte{5, 0, 0, 0, 3, 4, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3})
	f.Add(int64(4), false, []byte{0, 8, 16, 24, 32, 40, 48, 56, 64, 72, 80, 88, 96, 104, 112, 120, 128, 136, 144, 152})
	// Fifteen extensions whose last scan opens a different cell set as the
	// stride doubles: the re-layout must move slots, not just drop them.
	f.Add(int64(-59), false, []byte("22222222222222A"))
	f.Fuzz(func(t *testing.T, seed int64, rounding bool, ops []byte) {
		if len(ops) > 80 {
			ops = ops[:80]
		}
		rng := rand.New(rand.NewSource(seed))
		d := 1 + rng.Intn(3)
		point := func() []float64 {
			x := make([]float64, d)
			for j := range x {
				x[j] = float64(rng.Intn(6))
				if rng.Intn(3) == 0 {
					x[j] += rng.Float64() - 0.5
				}
			}
			return x
		}
		kernel := func() Kernel {
			ls := make([]float64, d)
			for j := range ls {
				ls[j] = 0.5 + 4*rng.Float64()
			}
			var k Kernel = NewMatern52(0.5+2*rng.Float64(), ls)
			if rounding {
				k = Rounding{Inner: k}
			}
			return k
		}
		noise := func() float64 { return 0.01 + 0.1*rng.Float64() }
		grid := make([][]float64, 1+rng.Intn(48))
		for i := range grid {
			grid[i] = point()
		}

		g, err := Fit(kernel(), noise(), [][]float64{point(), point()}, []float64{rng.NormFloat64(), rng.NormFloat64()})
		if err != nil {
			t.Fatal(err)
		}
		history := []*GP{g}
		c := NewCellCache(len(grid), d)
		check := func(step int, mask int) {
			// Which cells count as open varies per scan, so slots are
			// assigned late and some cells are always solved in scratch.
			c.Sync(g, func(cell int) bool { return (cell+mask)%3 != 0 })
			sc := c.Scanner()
			for _, cell := range rng.Perm(len(grid)) {
				if rng.Intn(4) == 0 {
					continue // this cell skips the scan and falls behind
				}
				m1, v1 := sc.Predict(cell, grid[cell])
				m2, v2 := g.Predict(grid[cell])
				if !sameBits(m1, v1, m2, v2) {
					t.Fatalf("step %d cell %d x=%v n=%d: cache (%v, %v) != Predict (%v, %v)",
						step, cell, grid[cell], g.N(), m1, v1, m2, v2)
				}
			}
		}
		check(-1, 0)
		for i, op := range ops {
			switch op % 5 {
			case 0: // Extend by a fresh point, a grid cell, or a training input again
				var x []float64
				switch rng.Intn(3) {
				case 0:
					x = point()
				case 1:
					x = grid[rng.Intn(len(grid))]
				default:
					x = g.xs[rng.Intn(g.N())]
				}
				if g2, err := g.Extend(x, rng.NormFloat64()); err == nil {
					g = g2
				}
			case 1: // replace the targets
				ys := make([]float64, g.N())
				for j := range ys {
					ys[j] = rng.NormFloat64()
				}
				if g, err = g.WithTargets(ys); err != nil {
					t.Fatal(err)
				}
			case 2: // refit with fresh hyper-parameters: a new generation
				if g, err = Fit(kernel(), noise(), g.xs, g.ys); err != nil {
					t.Fatal(err)
				}
			case 3: // roll back to an earlier posterior
				g = history[rng.Intn(len(history))]
			case 4: // refit through hyper-parameter selection
				if g, err = FitAuto(g.xs, g.ys, HyperOptions{Rounding: rounding}); err != nil {
					t.Fatal(err)
				}
			}
			history = append(history, g)
			check(i, int(op>>3))
		}
	})
}

// Past the byte budget the cache keeps working: growing the stride releases
// the slots the budget no longer covers, and a grid too large to index
// solves every cell in scratch. Both stay bit-equal to GP.Predict.
func TestCellCacheOverBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var xs [][]float64
	var ys []float64
	for i := 0; i < 16; i++ {
		xs = append(xs, []float64{float64(rng.Intn(40000))})
		ys = append(ys, rng.NormFloat64())
	}
	g, err := Fit(Rounding{Inner: NewMatern52(1, []float64{900})}, 0.01, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	check := func(c *CellCache, cells []int) {
		t.Helper()
		sc := c.Scanner()
		for _, cell := range cells {
			x := []float64{float64(cell)}
			m1, v1 := sc.Predict(cell, x)
			m2, v2 := g.Predict(x)
			if !sameBits(m1, v1, m2, v2) {
				t.Fatalf("cell %d: cache (%v, %v) != Predict (%v, %v)", cell, m1, v1, m2, v2)
			}
		}
	}
	all := func(int) bool { return true }

	// 16 rows fit stride 16 for every cell; at 17 rows the stride doubles
	// and the tail slots no longer fit.
	cells := cellCacheBytes/(16*32+8+24) + 500
	c := NewCellCache(cells, 1)
	c.Sync(g, all)
	if len(c.cellOf) != cells {
		t.Fatalf("stride 16: %d of %d cells slotted", len(c.cellOf), cells)
	}
	sample := []int{0, 1, cells / 2, cells - 501, cells - 500, cells - 2, cells - 1}
	check(c, sample)
	if g, err = g.Extend([]float64{123}, 0.5); err != nil {
		t.Fatal(err)
	}
	c.Sync(g, all)
	if len(c.cellOf) != cells-500 || c.slotOf[cells-1] != -1 || c.slotOf[0] != 0 {
		t.Fatalf("stride %d: %d slots, want the first %d cells", c.stride, len(c.cellOf), cells-500)
	}
	check(c, sample)

	huge := NewCellCache(1<<21, 1)
	if huge.slotOf != nil {
		t.Fatalf("a %d-cell grid was indexed", 1<<21)
	}
	huge.Sync(g, all)
	check(huge, []int{0, 7, 1<<21 - 1})
}
