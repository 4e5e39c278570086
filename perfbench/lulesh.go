package main

import (
	"fmt"
	"math"
	"time"

	"taskdep/apps/lulesh"
	"taskdep/internal/rt"
)

// LULESH in the paper's discovery-bound regime: one rank, S=16, 64
// tasks per loop, optimization (a) off, not persistent. Each measured
// graph is one lulesh.RunTask call of one step, so every step
// re-discovers its ~578 tasks and ends at a barrier.
type luleshSize struct {
	s, tpl int
	// episode is the number of steps between correctness checks; the
	// domain is then reset to its initial state, so every check
	// compares against the same serial reference and the physics never
	// drifts from the regime being measured.
	episode int
	warm    int // warm-up steps in set-up
}

func luleshSizes(p params) luleshSize {
	if p.tiny {
		return luleshSize{s: 4, tpl: 4, episode: 4, warm: 2}
	}
	return luleshSize{s: 16, tpl: 64, episode: 64, warm: 64}
}

type luleshInst struct {
	sz    luleshSize
	r     *rt.Runtime
	cfg   lulesh.TaskConfig
	dom   *lulesh.Domain
	init  *lulesh.Domain
	ref   []float64 // ref[k]: checksum of the serial twin after k steps
	steps int       // steps since the last reset
	tasks int64     // tasks discovered per step
	slots int       // workers plus producer
}

func luleshParams(sz luleshSize) lulesh.Params {
	return lulesh.Params{S: sz.s, Iters: 1, Ranks: 1}
}

func prepareLulesh(p params) (setupFunc, error) {
	sz := luleshSizes(p)
	twin, err := lulesh.NewDomain(luleshParams(sz))
	if err != nil {
		return nil, err
	}
	ref := make([]float64, sz.episode+1)
	ref[0] = twin.Checksum()
	for k := 1; k <= sz.episode; k++ {
		twin.Step()
		ref[k] = twin.Checksum()
	}
	if p.corrupt {
		for k := range ref {
			ref[k] += 1
		}
	}
	return func(traced bool) (instance, error) {
		r, err := rt.NewRuntime(runtimeConfig(p.workers, traced))
		if err != nil {
			return nil, err
		}
		l := &luleshInst{sz: sz, r: r, ref: ref, slots: p.workers + 1,
			cfg: lulesh.TaskConfig{TPL: sz.tpl}}
		if l.init, err = lulesh.NewDomain(luleshParams(sz)); err == nil {
			l.dom, err = lulesh.NewDomain(luleshParams(sz))
		}
		if err != nil {
			r.Close()
			return nil, err
		}
		t0 := r.Graph().Stats().Tasks
		for i := 0; i < sz.warm; i++ {
			if err := lulesh.RunTask(l.dom, r, nil, l.cfg); err != nil {
				r.Close()
				return nil, fmt.Errorf("warm-up step: %w", err)
			}
		}
		l.tasks = (r.Graph().Stats().Tasks - t0) / int64(sz.warm)
		copyDomain(l.dom, l.init)
		return l, nil
	}, nil
}

func (l *luleshInst) measure(d time.Duration, t *tally) {
	start := time.Now()
	for time.Since(start) < d {
		t0 := time.Now()
		err := lulesh.RunTask(l.dom, l.r, nil, l.cfg)
		el := time.Since(t0)
		t.attempted++
		l.steps++
		if err != nil {
			t.fail(1, "lulesh step: %v", err)
			l.reset()
			continue
		}
		t.record(t0, el, l.tasks)
		t.busy += el
		if l.steps == l.sz.episode {
			l.check(t)
		}
	}
	if l.steps > 0 {
		l.check(t)
	}
	t.wall += time.Since(start)
}

// check compares the domain bitwise with the serial twin after the same
// number of steps, then resets it; a mismatch fails every step since the
// last reset.
func (l *luleshInst) check(t *tally) {
	got, want := l.dom.Checksum(), l.ref[l.steps]
	if math.Float64bits(got) != math.Float64bits(want) {
		t.fail(int64(l.steps), "lulesh: checksum after %d steps is %v, serial twin %v", l.steps, got, want)
	}
	l.reset()
}

func (l *luleshInst) reset() {
	copyDomain(l.dom, l.init)
	l.steps = 0
}

// copyDomain restores dst's state from src without allocating.
func copyDomain(dst, src *lulesh.Domain) {
	copy(dst.X, src.X)
	copy(dst.Y, src.Y)
	copy(dst.Z, src.Z)
	copy(dst.XD, src.XD)
	copy(dst.YD, src.YD)
	copy(dst.ZD, src.ZD)
	copy(dst.FX, src.FX)
	copy(dst.FY, src.FY)
	copy(dst.FZ, src.FZ)
	copy(dst.NodalMass, src.NodalMass)
	copy(dst.E, src.E)
	copy(dst.Pf, src.Pf)
	copy(dst.Q, src.Q)
	copy(dst.V, src.V)
	copy(dst.Vdov, src.Vdov)
	copy(dst.SS, src.SS)
	copy(dst.Delv, src.Delv)
	dst.Dt, dst.DtCand, dst.Time, dst.Cycle = src.Dt, src.DtCand, src.Time, src.Cycle
}

func (l *luleshInst) snap() layerSnap { return snapRuntime(l.r) }

func (l *luleshInst) executors() (int, int) { return l.slots, l.slots }

// serialMs is the median time of one serial Domain.Step over an episode.
func (l *luleshInst) serialMs() float64 {
	d, err := lulesh.NewDomain(luleshParams(l.sz))
	if err != nil {
		return 0
	}
	times := make([]float64, 0, l.sz.episode)
	for k := 0; k < l.sz.episode; k++ {
		t0 := time.Now()
		d.Step()
		times = append(times, time.Since(t0).Seconds()*1e3)
	}
	return quantile(times, 0.5)
}

func (l *luleshInst) close() error { return l.r.Close() }
