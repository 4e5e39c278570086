// Package graph implements the task dependency graph (TDG) at the heart
// of the reproduction: OpenMP-style dependence discovery over data keys,
// precedence-edge management with the paper's edge-reduction
// optimizations, and the persistent task sub-graph (PTSG) extension.
//
// The package is executor-agnostic: a Graph turns a stream of task
// submissions into ready-task notifications. Two executors drive it in
// this repository — the real goroutine runtime (internal/rt) and the
// discrete-event machine simulator (internal/sim).
//
// # Discovery engine
//
// Discovery is the paper's limiting factor, so the hot path is built
// for throughput:
//
//   - The dependence key table is lock-striped (see shard in graph.go):
//     each key hashes to one of Config.Shards stripes, and all frontier
//     state for the key (last writers, readers, open inoutset group) is
//     touched only under that stripe's lock. Producers working on
//     disjoint keys never serialize, so Submit and SubmitBatch are
//     safe — and scalable — from concurrent producer goroutines (see
//     the concurrency contract below for the disjointness requirement).
//   - Task descriptors are carved from pooled allocation chunks,
//     successor lists start on inline storage, and keyStates are
//     recycled per shard (see alloc.go), cutting discovery from ~5 heap
//     allocations per task to ~1 per 100 tasks.
//   - SubmitBatch (batch.go) amortizes ID reservation, counter updates,
//     allocator traffic and ready-queue publication over a slice of
//     TaskDescs; executors receive the batch's ready tasks in one
//     OnReadyBatch call, or earlier, in pieces, while Config.Idle
//     reports a parked execution slot.
//   - An edge to a predecessor that already finished — most edges of a
//     discovery-bound graph — is pruned without taking the
//     predecessor's lock (see addEdge).
//
// # Structure of a submission
//
// Submit/SubmitBatch allocate the Task, then run processDep for each
// declared dependence under the key's shard lock: In accesses join the
// reader frontier, Out/InOut accesses succeed the out-set and all
// readers, InOutSet accesses open or join a concurrent-writer group.
// processDep materializes precedence constraints through addEdge, which
// applies duplicate elimination (OptDedup, optimization b) and
// completed-predecessor pruning; optimization (c) (OptInOutSetNode)
// inserts redirect nodes so an inoutset group of m writers and n
// consumers costs m+n edges instead of m*n. When the producer sentinel
// is finally dropped (releaseSentinel) a task with no outstanding
// predecessors becomes Ready and is delivered to the executor.
//
// # Persistence
//
// BeginRecording/EndRecording capture a task sub-graph; BeginReplay,
// Replay and FinishReplay re-instantiate it with per-task cost reduced
// to a firstprivate copy (persist.go); Compile lowers a frozen
// recording into a flat replay schedule (compile.go). Replay reuses the
// recorded Task objects and their successor storage, so a replay
// iteration performs no discovery and no allocation.
//
// # Concurrency contract
//
// Complete is safe for concurrent use from any number of workers.
// Submit and SubmitBatch are safe from concurrent producers whose
// concurrent key footprints are disjoint (or whose tasks declare a
// single dependence each); the discovered per-key order is then the
// order producers win the key's shard lock. Concurrent multi-key
// submissions against shared keys are unsupported — per-key
// serialization can order two such submissions oppositely on two keys
// and discover a cycle; see the Graph type comment. Persistence, Flush
// and ResetDiscoveryFrontier are synchronization points and retain the
// single-producer contract. See Stats for the counter consistency
// model.
package graph
