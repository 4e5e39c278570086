package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"taskdep/apps/cholesky"
	"taskdep/internal/rt"
)

// Repeated Cholesky factorizations under the persistent task graph (the
// paper's PTSG (p)): 20x20 tiles of 8x8, 1540 tasks per factorization.
// After the recording iteration, discovery is a per-task replay copy,
// so the scheduler, release and the iteration barrier carry the time.
//
// Each iteration body resets the working matrix and calls
// cholesky.TaskFactor, which is the reset-and-submit body of
// cholesky.TaskFactorRepeated plus its wait; driving rt.Persistent
// directly gives every factorization its own start and end time.
// regionLen bounds one measured persistent region.
const regionLen = 2 * time.Second

type cholSize struct {
	tiles, block int
	warm         int // replay iterations in set-up
	lead         int // untimed iterations opening each measured region
}

func cholSizes(p params) cholSize {
	if p.tiny {
		return cholSize{tiles: 4, block: 2, warm: 2, lead: 2}
	}
	return cholSize{tiles: 20, block: 8, warm: 40, lead: 3}
}

type cholInst struct {
	sz    cholSize
	r     *rt.Runtime
	a0    *cholesky.Matrix
	work  *cholesky.Matrix
	ref   *cholesky.Matrix // cholesky.SerialFactor of a0
	tasks int64            // tasks per factorization
	iter  time.Duration    // median warm replay iteration
	slots int              // workers plus producer
	pre   tally            // checks made during set-up
}

// seededSPD builds a symmetric matrix whose entries come from the seed:
// off-diagonal entries in (-1/(1+|i-j|), 1/(1+|i-j|)) and a diagonal of
// n plus a positive draw, so every row is strictly diagonally dominant
// and the matrix is positive definite.
func seededSPD(sz cholSize, seed int64) *cholesky.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := cholesky.NewSPD(sz.tiles, sz.block)
	b, n := sz.block, sz.tiles*sz.block
	for ti := 0; ti < sz.tiles; ti++ {
		for tj := 0; tj <= ti; tj++ {
			tile := m.Tile(ti, tj)
			for i := 0; i < b; i++ {
				for j := 0; j < b; j++ {
					gi, gj := ti*b+i, tj*b+j
					switch {
					case gi < gj:
						continue
					case gi == gj:
						tile[i*b+j] = float64(n) + rng.Float64()
					default:
						tile[i*b+j] = (2*rng.Float64() - 1) / (1 + math.Abs(float64(gi-gj)))
					}
				}
			}
		}
	}
	return m
}

func prepareCholesky(p params) (setupFunc, error) {
	sz := cholSizes(p)
	a0 := seededSPD(sz, p.seed)
	ref := a0.Clone()
	if err := cholesky.SerialFactor(ref); err != nil {
		return nil, fmt.Errorf("serial reference: %w", err)
	}
	if p.corrupt {
		ref.Tile(0, 0)[0] += 1
	}
	return func(traced bool) (instance, error) {
		r, err := rt.NewRuntime(runtimeConfig(p.workers, traced))
		if err != nil {
			return nil, err
		}
		c := &cholInst{sz: sz, r: r, a0: a0, work: a0.Clone(), ref: ref, slots: p.workers + 1}
		var warm tally
		t0 := r.Graph().Stats().Tasks
		c.region(1+sz.warm, 1, &warm)
		c.tasks = r.Graph().Stats().Tasks - t0
		c.iter = time.Duration(quantile(warm.lat, 0.5) * float64(time.Second))
		c.pre = warm.checks()
		return c, nil
	}, nil
}

// region runs one persistent region of iters factorizations; iteration
// 0 records the graph. Iterations from timed on are measured into t.
// Every factorization is checked, outside its timed interval, and every
// failure is counted in t rather than ending the run.
func (c *cholInst) region(iters, timed int, t *tally) {
	unchecked, failed := false, false
	body := func(it int) {
		if unchecked {
			c.check(t)
			unchecked = false
		}
		t0 := time.Now()
		c.reset()
		err := cholesky.TaskFactor(c.work, c.r)
		el := time.Since(t0)
		if err != nil {
			failed = true
			t.attempted++
			t.fail(1, "cholesky iteration %d: %v", it, err)
			return
		}
		unchecked = true
		if it >= timed {
			t.record(t0, el, c.tasks)
			t.busy += el
		}
	}
	err := c.r.Persistent(iters, body)
	if unchecked {
		c.check(t)
	}
	if err != nil && !failed {
		t.attempted++
		t.fail(1, "cholesky region: %v", err)
	}
}

func (c *cholInst) reset() {
	for i := 0; i < c.sz.tiles; i++ {
		for j := 0; j <= i; j++ {
			copy(c.work.Tile(i, j), c.a0.Tile(i, j))
		}
	}
}

// check compares the working matrix bitwise with the serial factor.
func (c *cholInst) check(t *tally) {
	t.attempted++
	for i := 0; i < c.sz.tiles; i++ {
		for j := 0; j <= i; j++ {
			got, want := c.work.Tile(i, j), c.ref.Tile(i, j)
			for k := range got {
				if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
					t.fail(1, "cholesky: tile (%d,%d)[%d] is %v, serial factor %v", i, j, k, got[k], want[k])
					return
				}
			}
		}
	}
}

// measure runs persistent regions of about regionLen each until d has
// passed. A region's length is fixed when it starts, so each one is
// sized from the median iteration time measured so far.
func (c *cholInst) measure(d time.Duration, t *tally) {
	t.merge(&c.pre)
	c.pre = tally{}
	start := time.Now()
	defer func() { t.wall += time.Since(start) }()
	for {
		left := d - time.Since(start)
		if left <= 0 {
			return
		}
		n := int(min(left, regionLen)/max(c.iter, time.Microsecond)) + 1
		from := len(t.lat)
		c.region(c.sz.lead+n, c.sz.lead, t)
		if len(t.lat) > from {
			c.iter = time.Duration(quantile(append([]float64(nil), t.lat[from:]...), 0.5) * float64(time.Second))
		}
	}
}

func (c *cholInst) snap() layerSnap { return snapRuntime(c.r) }

func (c *cholInst) executors() (int, int) { return c.slots, c.slots }

// serialMs is the median time of cholesky.SerialFactor on a0.
func (c *cholInst) serialMs() float64 {
	var times []float64
	for k := 0; k < 21; k++ {
		m := c.a0.Clone()
		t0 := time.Now()
		if err := cholesky.SerialFactor(m); err != nil {
			return 0
		}
		times = append(times, time.Since(t0).Seconds()*1e3)
	}
	return quantile(times, 0.5)
}

func (c *cholInst) close() error { return c.r.Close() }
