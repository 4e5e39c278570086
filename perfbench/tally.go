package main

import (
	"fmt"
	"math"
	"time"
)

// tally accumulates one instance's measured graphs.
type tally struct {
	origin    time.Time // start of the first measured graph
	lat       []float64 // per-graph latency, seconds
	end       []float64 // per-graph completion, seconds after origin
	size      []int64   // per-graph tasks
	graphs    int64
	tasks     int64
	busy      time.Duration // time graphs were in flight
	wall      time.Duration // wall time of the measure calls
	attempted int64
	failed    int64
	rejected  int64
	errs      []string
}

// record adds one correct graph that started at t0 and took el.
func (t *tally) record(t0 time.Time, el time.Duration, tasks int64) {
	if t.origin.IsZero() {
		t.origin = t0
	}
	t.lat = append(t.lat, el.Seconds())
	t.end = append(t.end, t0.Add(el).Sub(t.origin).Seconds())
	t.size = append(t.size, tasks)
	t.graphs++
	t.tasks += tasks
}

// merge adds o's graphs and counts to t; o must share t's origin.
func (t *tally) merge(o *tally) {
	t.lat = append(t.lat, o.lat...)
	t.end = append(t.end, o.end...)
	t.size = append(t.size, o.size...)
	t.graphs += o.graphs
	t.tasks += o.tasks
	t.attempted += o.attempted
	t.failed += o.failed
	t.rejected += o.rejected
	t.errs = append(t.errs, o.errs...)
}

// window is one equal slice of a measured run.
type window struct {
	tasksPerS, graphsPerS float64
	p50                   float64 // latency of the graphs completed in it, seconds
	n                     int
}

// windows splits the measured time into k equal slices by graph
// completion time. Reporting the median over slices keeps a few seconds
// of interference from another tenant of the machine out of the result.
func (t *tally) windows(k int) []window {
	span := 0.0
	for _, e := range t.end {
		span = math.Max(span, e)
	}
	w := math.Max(span/float64(k), 1e-9)
	ws := make([]window, k)
	lats := make([][]float64, k)
	for i, e := range t.end {
		j := min(int(e/w), k-1)
		ws[j].tasksPerS += float64(t.size[i]) / w
		ws[j].graphsPerS += 1 / w
		lats[j] = append(lats[j], t.lat[i])
	}
	for j := range ws {
		ws[j].n = len(lats[j])
		ws[j].p50 = quantile(lats[j], 0.50)
	}
	return ws
}

// medianOf is the median of f over ws.
func medianOf(ws []window, f func(w window) float64) float64 {
	xs := make([]float64, len(ws))
	for i, w := range ws {
		xs[i] = f(w)
	}
	return quantile(xs, 0.5)
}

// checks keeps only t's correctness record, for merging into a later
// measurement.
func (t *tally) checks() tally {
	return tally{attempted: t.attempted, failed: t.failed, rejected: t.rejected, errs: t.errs}
}

func (t *tally) fail(n int64, format string, args ...any) {
	t.failed += n
	if len(t.errs) < 8 {
		t.errs = append(t.errs, fmt.Sprintf(format, args...))
	}
}
