package main

import (
	"time"

	"taskdep/internal/graph"
	"taskdep/internal/obs"
	"taskdep/internal/rt"
)

// layerSnap is a cumulative reading of what the runtime already
// exports: the graph's discovery counters, the obs counters (including
// the critical-path phase totals) and the sums and counts of the obs
// latency histograms. Differences of two snaps attribute one phase.
type layerSnap struct {
	stats  graph.Stats
	ctr    [obs.NumCounters]int64
	hSum   [obs.NumHistos]int64
	hCount [obs.NumHistos]int64
}

func snapRuntime(r *rt.Runtime) layerSnap {
	s := layerSnap{stats: r.Graph().Stats(), ctr: r.Obs().Counters()}
	for h := obs.Histo(0); h < obs.NumHistos; h++ {
		hs := r.Obs().Histogram(h)
		s.hSum[h], s.hCount[h] = hs.Sum, hs.Count
	}
	return s
}

// add accumulates o into s (sign -1 subtracts).
func (s *layerSnap) addSigned(o layerSnap, sign int64) {
	s.stats.Tasks += sign * o.stats.Tasks
	s.stats.RedirectNodes += sign * o.stats.RedirectNodes
	s.stats.EdgesAttempted += sign * o.stats.EdgesAttempted
	s.stats.EdgesCreated += sign * o.stats.EdgesCreated
	s.stats.EdgesPruned += sign * o.stats.EdgesPruned
	s.stats.EdgesDuplicate += sign * o.stats.EdgesDuplicate
	s.stats.ReplayedTasks += sign * o.stats.ReplayedTasks
	for i := range s.ctr {
		s.ctr[i] += sign * o.ctr[i]
	}
	for i := range s.hSum {
		s.hSum[i] += sign * o.hSum[i]
		s.hCount[i] += sign * o.hCount[i]
	}
}

func (s *layerSnap) add(o layerSnap) { s.addSigned(o, 1) }

func (s layerSnap) sub(o layerSnap) layerSnap {
	s.addSigned(o, -1)
	return s
}

// serveLayers accumulates the service layers timed around the
// benchmark's own in-process calls into internal/serve.
type serveLayers struct {
	n            int64 // requests timed
	decode       time.Duration
	admit        time.Duration
	nOne, nRep   int64
	runOne       time.Duration
	runRep       time.Duration
	rejected     int64
	totalLayered time.Duration // decode + admit + run over all n
}

func (sl *serveLayers) add(o *serveLayers) {
	sl.n += o.n
	sl.decode += o.decode
	sl.admit += o.admit
	sl.nOne += o.nOne
	sl.nRep += o.nRep
	sl.runOne += o.runOne
	sl.runRep += o.runRep
	sl.rejected += o.rejected
	sl.totalLayered += o.totalLayered
}

// layerPasser is implemented by workloads whose layers above the
// runtime are timed by calling them in-process.
type layerPasser interface {
	layerPass(d time.Duration, sl *serveLayers, t *tally)
}

// layerMetrics derives the per-layer metrics. dl covers the traced
// instance's measured phases; ta and tb are the untraced and traced
// phases; serial is the single-threaded reference time of one graph.
//
// rt.residual_frac is the share of executor time (measured wall time
// times the worker-plus-producer slots of every runtime) not covered by
// discovery, replay, task bodies and release: scheduling, idling and
// barrier waits. It reads below zero when the phase counters add up to
// more time than the executors had, which only an overcounting counter
// can cause.
func layerMetrics(dl layerSnap, ta, tb *tally, sl *serveLayers, serial float64, perGraph, total int) map[string]float64 {
	f := func(v int64) float64 { return float64(v) }
	executed := f(dl.ctr[obs.CTasksExecuted])
	discovered := f(dl.stats.Tasks)
	graphs := f(tb.graphs)

	// Batched discovery is timed by the SubmitBatch histogram. Tasks
	// submitted one at a time (the service) are timed by the
	// critical-path discovery phase, which spans exactly that call.
	discNs := dl.hSum[obs.HDiscoveryBatchNs]
	if dl.hCount[obs.HDiscoveryBatchNs] == 0 {
		discNs = dl.ctr[obs.CPhaseDiscoveryNs]
	}
	replayNs := dl.hSum[obs.HReplayCopyNs]
	execNs := dl.ctr[obs.CPhaseExecuteNs]
	relNs := dl.ctr[obs.CPhaseReleaseNs]
	steals, stealFails := f(dl.ctr[obs.CDequeSteal]), f(dl.ctr[obs.CDequeStealFail])
	slotNs := tb.wall.Seconds() * 1e9 * float64(total)

	meanLat := 0.0
	for _, l := range tb.lat {
		meanLat += l
	}
	meanLat = ratio(meanLat, float64(len(tb.lat)))
	untracedP50 := quantile(ta.lat, 0.5)

	v := map[string]float64{
		"graph.discovery_ns_per_task":    ratio(f(discNs), discovered),
		"graph.edges_attempted_per_task": ratio(f(dl.stats.EdgesAttempted), discovered),
		"graph.edges_created_per_task":   ratio(f(dl.stats.EdgesCreated), discovered),
		"graph.edges_dup_per_task":       ratio(f(dl.stats.EdgesDuplicate), discovered),
		"graph.redirects_per_iter":       ratio(f(dl.stats.RedirectNodes), graphs),
		"graph.edge_useful_ratio":        ratio(f(dl.stats.EdgesCreated), f(dl.stats.EdgesAttempted)),
		"graph.replay_ns_per_task":       ratio(f(replayNs), f(dl.ctr[obs.CReplayHits])),
		"graph.release_ns_per_task":      ratio(f(relNs), executed),
		"sched.ready_wait_ns_per_task":   ratio(f(dl.ctr[obs.CPhaseReadyWaitNs]), executed),
		"sched.steals_per_task":          ratio(steals, executed),
		"sched.steal_success_ratio":      ratio(steals, steals+stealFails),
		"sched.parks_per_iter":           ratio(f(dl.ctr[obs.CParks]), graphs),
		"sched.wakes_per_iter":           ratio(f(dl.ctr[obs.CWakes]), graphs),
		"rt.taskwait_ms_per_iter":        ratio(f(dl.hSum[obs.HTaskwaitNs]), graphs) / 1e6,
		"rt.throttle_stalls_per_task":    ratio(f(dl.ctr[obs.CThrottleStalls]), executed),
		"rt.residual_frac":               1 - ratio(f(discNs+replayNs+execNs+relNs), slotNs),
		"apps.body_ns_per_task":          ratio(f(execNs), executed),
		"apps.serial_iter_ms":            serial,
		"tail.graph_p99_ms":              quantile(ta.lat, 0.99) * 1e3,
		"apps.parallel_efficiency":       ratio(serial, untracedP50*1e3*float64(perGraph)),
		"trace.overhead_frac": 1 - ratio(ratio(f(tb.tasks), tb.busy.Seconds()),
			ratio(f(ta.tasks), ta.busy.Seconds())),
	}
	if sl.n > 0 {
		us := func(d time.Duration, n int64) float64 { return ratio(float64(d.Nanoseconds())/1e3, f(n)) }
		v["serve.decode_us"] = us(sl.decode, sl.n)
		v["serve.admit_us"] = us(sl.admit, sl.n)
		v["serve.run_oneshot_us"] = us(sl.runOne, sl.nOne)
		v["serve.run_repeat_us"] = us(sl.runRep, sl.nRep)
		v["serve.transport_us"] = meanLat*1e6 - us(sl.totalLayered, sl.n)
		v["serve.rejected_frac"] = ratio(f(ta.rejected+tb.rejected+sl.rejected), f(ta.attempted+tb.attempted+sl.n))
	}
	return v
}
