package graph

// TaskDesc describes one task for SubmitBatch: the Submit parameters as
// data, so a producer can stage a slice of submissions and hand them to
// the graph in one call.
type TaskDesc struct {
	Label string
	Deps  []Dep
	Body  func(fp any)
	// Do is the error-returning body form; when set it takes precedence
	// over Body (see Task.Do).
	Do           func(fp any) error
	FirstPrivate any
	// Detached marks a task completed externally (Event/Fulfill) rather
	// than at body return.
	Detached bool
	// Attach is copied to Task.Attach before the task is published.
	Attach any
}

// SubmitBatch discovers all tasks described by descs, in order, and
// appends the created tasks to out (pass nil, or a buffer to reuse; the
// result is returned). It is semantically equivalent to calling Submit
// for each desc, but amortizes the fixed per-task costs across the
// batch:
//
//   - task IDs, the task/live counters and chunk-pool traffic are
//     reserved once per batch instead of once per task;
//   - tasks that become ready during the batch are gathered and
//     published together through OnReadyBatch when configured (one
//     queue lock + one wake-up instead of len(batch));
//   - the deps slices in descs are only read during the call, so
//     callers can build descs in reused buffers.
//
// Gathered ready tasks are published at the end of the batch, or as
// soon as Config.Idle reports a parked execution slot: after each
// task's sentinel release the batch checks Idle and, if it is true,
// hands what it has gathered to OnReadyBatch at once, so an idle pool
// executes while the producer keeps discovering (the paper's
// discovery/execution overlap). With no slot parked a worker sees the
// first task of a batch at worst one batch later than with Submit —
// but only a busy pool waits, so the amortization costs no idleness.
// Like Submit, SubmitBatch is safe for concurrent producers (outside
// recording mode) under the Graph concurrency contract: concurrent
// producers must keep disjoint key footprints.
func (g *Graph) SubmitBatch(descs []TaskDesc, out []*Task) []*Task {
	n := len(descs)
	if n == 0 {
		return out
	}
	base := len(out)
	out = g.allocTasks(n, out)
	firstID := g.nextID.Add(int64(n)) - int64(n)
	g.tasks.Add(int64(n))
	g.lrAdd(int64(n), 0)

	var ready []*Task
	cpath, idle := g.cpath, g.idle
	for i := range descs {
		var cpT0 int64
		if cpath {
			cpT0 = g.cpNow()
		}
		d := &descs[i]
		t := out[base+i]
		t.ID = firstID + int64(i)
		t.Label = d.Label
		t.Body = d.Body
		t.Do = d.Do
		t.FirstPrivate = d.FirstPrivate
		t.Detached = d.Detached
		t.Attach = d.Attach
		t.captureDeps(d.Deps)
		t.preds.Store(1) // producer sentinel
		t.Persistent = g.recording
		if g.recording {
			t.recordEpoch = g.epoch
			g.recorded = append(g.recorded, t)
		}
		for _, dep := range d.Deps {
			g.processDep(t, dep, &ready)
		}
		if cpath {
			// Per-desc discovery stamp, before the sentinel release
			// publishes the task (same contract as submit).
			t.discNs = g.cpNow() - cpT0
		}
		g.releaseSentinel(t, &ready)
		if len(ready) > 0 && idle != nil && idle() {
			g.notifyReady(ready)
			ready = ready[:0]
		}
	}
	g.notifyReady(ready)
	return out
}
