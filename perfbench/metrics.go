package main

import (
	"math"
	"sort"
)

// metricDef declares one reported metric. BENCHMARK.json lists the same
// names, units and directions (the self-test keeps the two in step);
// the prediction fields have no place in that file's fixed schema, so
// they live here.
type metricDef struct {
	name, unit, better string
	// moves names the end-to-end metric and workload a change to this
	// layer should move; still names where it should not move.
	moves, still string
}

// endToEnd is what a user of the runtime or the service sees, printed
// with --trace 0 on every workload. A "graph" is one LULESH step, one
// Cholesky factorization or one served graph request.
var endToEnd = []metricDef{
	{name: "tasks_per_s", unit: "1/s", better: "higher"},
	{name: "graphs_per_s", unit: "1/s", better: "higher"},
	{name: "graph_p50_ms", unit: "ms", better: "lower"},
	{name: "alloc_bytes_per_task", unit: "B", better: "lower"},
	{name: "setup_s", unit: "s", better: "lower"},
}

// perLayer is printed with --trace 1 on every workload. A layer a
// workload does not cross reads 0 there.
var perLayer = []metricDef{
	{name: "tail.graph_p99_ms", unit: "ms", better: "lower",
		moves: "the slowest graphs of every workload (too noisy between runs to gate end to end)", still: "none"},
	{name: "graph.discovery_ns_per_task", unit: "ns", better: "lower",
		moves: "tasks_per_s and graph_p50_ms on lulesh-discover; setup_s on cholesky-persistent",
		still: "graph_p50_ms on cholesky-persistent"},
	{name: "graph.edges_attempted_per_task", unit: "count", better: "lower",
		moves: "tasks_per_s on lulesh-discover", still: "cholesky-persistent after setup"},
	{name: "graph.edges_created_per_task", unit: "count", better: "lower",
		moves: "tasks_per_s on lulesh-discover", still: "cholesky-persistent after setup"},
	{name: "graph.edges_dup_per_task", unit: "count", better: "lower",
		moves: "tasks_per_s on lulesh-discover", still: "cholesky-persistent after setup"},
	{name: "graph.redirects_per_iter", unit: "count", better: "lower",
		moves: "graph_p50_ms on lulesh-discover", still: "cholesky-persistent, serve-fanout"},
	{name: "graph.edge_useful_ratio", unit: "ratio", better: "higher",
		moves: "tasks_per_s on lulesh-discover", still: "cholesky-persistent after setup"},
	{name: "graph.replay_ns_per_task", unit: "ns", better: "lower",
		moves: "tasks_per_s on cholesky-persistent", still: "lulesh-discover"},
	{name: "graph.release_ns_per_task", unit: "ns", better: "lower",
		moves: "tasks_per_s on cholesky-persistent", still: "serve-fanout"},
	{name: "sched.ready_wait_ns_per_task", unit: "ns", better: "lower",
		moves: "graph_p50_ms on cholesky-persistent", still: "serve-fanout"},
	{name: "sched.steals_per_task", unit: "count", better: "lower",
		moves: "tail.graph_p99_ms on cholesky-persistent", still: "serve-fanout"},
	{name: "sched.steal_success_ratio", unit: "ratio", better: "higher",
		moves: "tail.graph_p99_ms on cholesky-persistent", still: "serve-fanout"},
	{name: "sched.parks_per_iter", unit: "count", better: "lower",
		moves: "tail.graph_p99_ms on cholesky-persistent", still: "serve-fanout"},
	{name: "sched.wakes_per_iter", unit: "count", better: "lower",
		moves: "tail.graph_p99_ms on cholesky-persistent", still: "serve-fanout"},
	{name: "rt.taskwait_ms_per_iter", unit: "ms", better: "lower",
		moves: "graph_p50_ms on lulesh-discover and cholesky-persistent", still: "serve-fanout"},
	{name: "rt.throttle_stalls_per_task", unit: "count", better: "lower",
		moves: "tasks_per_s on lulesh-discover", still: "cholesky-persistent"},
	{name: "rt.residual_frac", unit: "ratio", better: "lower",
		moves: "graph_p50_ms on every workload", still: "none"},
	{name: "serve.decode_us", unit: "us", better: "lower",
		moves: "graph_p50_ms and graphs_per_s on serve-fanout", still: "lulesh-discover, cholesky-persistent"},
	{name: "serve.admit_us", unit: "us", better: "lower",
		moves: "graph_p50_ms and graphs_per_s on serve-fanout", still: "lulesh-discover, cholesky-persistent"},
	{name: "serve.run_oneshot_us", unit: "us", better: "lower",
		moves: "graph_p50_ms and graphs_per_s on serve-fanout", still: "lulesh-discover, cholesky-persistent"},
	{name: "serve.run_repeat_us", unit: "us", better: "lower",
		moves: "tail.graph_p99_ms and graphs_per_s on serve-fanout", still: "lulesh-discover, cholesky-persistent"},
	{name: "serve.transport_us", unit: "us", better: "lower",
		moves: "graph_p50_ms and graphs_per_s on serve-fanout", still: "lulesh-discover, cholesky-persistent"},
	{name: "serve.rejected_frac", unit: "ratio", better: "lower",
		moves: "graphs_per_s on serve-fanout", still: "lulesh-discover, cholesky-persistent"},
	{name: "apps.body_ns_per_task", unit: "ns", better: "lower",
		moves: "tasks_per_s on every workload", still: "any runtime-only change"},
	{name: "apps.serial_iter_ms", unit: "ms", better: "lower",
		moves: "nothing (reference)", still: "any runtime-only change"},
	{name: "apps.parallel_efficiency", unit: "ratio", better: "higher",
		moves: "mirrors graph_p50_ms on every workload", still: "none"},
	{name: "trace.overhead_frac", unit: "ratio", better: "lower",
		moves: "nothing (cost of the traced run)", still: "every end-to-end metric"},
	{name: "failed_frac", unit: "ratio", better: "lower",
		moves: "every end-to-end metric", still: "none"},
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
