package rt

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"taskdep/internal/graph"
	"taskdep/internal/verify"
)

// TestSubmitBatchOrder submits a dependence chain through SubmitBatch
// and checks the execution order matches submission order.
func TestSubmitBatchOrder(t *testing.T) {
	rt := New(Config{Workers: 4, Opts: graph.OptAll})
	const n = 300
	var order []int
	var mu sync.Mutex
	specs := make([]Spec, 0, n)
	for i := 0; i < n; i++ {
		i := i
		specs = append(specs, Spec{
			Label: "c",
			InOut: []graph.Key{1},
			Body: func(any) {
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
			},
		})
	}
	if evs := rt.SubmitBatch(specs); evs != nil {
		t.Fatalf("batch without detached specs returned events: %v", evs)
	}
	rt.Close()
	if len(order) != n {
		t.Fatalf("ran %d of %d", len(order), n)
	}
	for i := range order {
		if order[i] != i {
			t.Fatalf("order[%d] = %d", i, order[i])
		}
	}
}

// TestSubmitBatchLargerThanChunk covers the internal chunking path
// (batches longer than batchChunk) plus FirstPrivate delivery.
func TestSubmitBatchLargerThanChunk(t *testing.T) {
	rt := New(Config{Workers: 4, Opts: graph.OptAll})
	n := 3*batchChunk + 17
	var sum atomic.Int64
	specs := make([]Spec, 0, n)
	for i := 0; i < n; i++ {
		specs = append(specs, Spec{
			Body:         func(fp any) { sum.Add(int64(fp.(int))) },
			FirstPrivate: i,
		})
	}
	rt.SubmitBatch(specs)
	rt.Taskwait()
	rt.Close()
	want := int64(n*(n-1)) / 2
	if got := sum.Load(); got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
}

// TestSubmitBatchDetached mixes detached and regular specs in one batch
// and fulfills the detached events out of band.
func TestSubmitBatchDetached(t *testing.T) {
	rt := New(Config{Workers: 2, Opts: graph.OptAll})
	var got atomic.Int64
	fulfill := make(chan *Event, 2)
	specs := []Spec{
		{Label: "d1", Out: []graph.Key{1}, Detached: true,
			DetachedBody: func(_ any, ev *Event) { fulfill <- ev }},
		{Label: "r1", In: []graph.Key{1}, Body: func(any) { got.Add(1) }},
		{Label: "d2", Out: []graph.Key{2}, Detached: true,
			DetachedBody: func(_ any, ev *Event) { fulfill <- ev }},
		{Label: "r2", In: []graph.Key{2}, Body: func(any) { got.Add(1) }},
	}
	evs := rt.SubmitBatch(specs)
	if evs[0] == nil || evs[2] == nil || evs[1] != nil || evs[3] != nil {
		t.Fatalf("event slots wrong: %v", evs)
	}
	(<-fulfill).Fulfill()
	(<-fulfill).Fulfill()
	rt.Taskwait()
	rt.Close()
	if got.Load() != 2 {
		t.Fatalf("readers ran %d times", got.Load())
	}
}

// waitParked waits until an execution slot of r is parked.
func waitParked(t *testing.T, r *Runtime) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for r.Scheduler().IdleWorkers() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no worker parked")
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// assertNoDetached checks that no detached task of r is registered or
// counted as awaiting fulfillment.
func assertNoDetached(t *testing.T, r *Runtime) {
	t.Helper()
	r.detachMu.Lock()
	n := len(r.detachLive)
	r.detachMu.Unlock()
	if n != 0 || r.detached.Load() != 0 {
		t.Fatalf("%d registered detached tasks, gauge %d", n, r.detached.Load())
	}
}

// TestSubmitBatchDetachedToParkedWorker: with the only worker parked,
// SubmitBatch publishes a batch's first ready task at once, so a
// detached task can run — and its body fulfill its event — while the
// producer is still discovering the batch and has not yet registered
// the task (the publish-before-register window Submit also has). Each
// round must drain with the detach registry empty and the detached
// gauge back at 0.
func TestSubmitBatchDetachedToParkedWorker(t *testing.T) {
	r := New(Config{Workers: 1, Opts: graph.OptAll})
	defer r.Close()
	const rounds = 20
	var ran, early atomic.Int64
	var inBatch atomic.Bool
	for round := 0; round < rounds; round++ {
		waitParked(t, r)
		specs := make([]Spec, 0, batchChunk)
		specs = append(specs, Spec{Label: "d", Out: []graph.Key{0}, Detached: true,
			DetachedBody: func(_ any, ev *Event) {
				if inBatch.Load() {
					early.Add(1)
				}
				ev.Fulfill()
			}})
		for i := 1; i < batchChunk; i++ {
			specs = append(specs, Spec{Label: "r", In: []graph.Key{0},
				InOut: []graph.Key{graph.Key(i)}, Body: func(any) { ran.Add(1) }})
		}
		inBatch.Store(true)
		evs := r.SubmitBatch(specs)
		inBatch.Store(false)
		if evs[0] == nil {
			t.Fatalf("round %d: no event for the detached spec", round)
		}
		if err := r.Taskwait(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if live := r.Graph().Live(); live != 0 {
			t.Fatalf("round %d: %d live tasks after Taskwait", round, live)
		}
		assertNoDetached(t, r)
	}
	if got, want := ran.Load(), int64(rounds*(batchChunk-1)); got != want {
		t.Fatalf("readers ran %d times, want %d", got, want)
	}
	t.Logf("detached body ran during SubmitBatch in %d of %d rounds", early.Load(), rounds)
}

// TestSubmitBatchDetachedAbortBeforeRegister: a detached task published
// mid-batch to the parked worker aborts the runtime from its body and
// returns unfulfilled, usually before the producer has registered it,
// so the abort's cancellation pass cannot see it. The registration must
// then claim it; otherwise the task waits forever on an event nobody
// will fulfill and Taskwait never returns.
func TestSubmitBatchDetachedAbortBeforeRegister(t *testing.T) {
	// No deferred Close: after a hang it would block forever too.
	r := New(Config{Workers: 1, Opts: graph.OptAll})
	errStop := errors.New("stop")
	for round := 0; round < 10; round++ {
		waitParked(t, r)
		specs := make([]Spec, 0, batchChunk)
		specs = append(specs, Spec{Label: "d", Out: []graph.Key{0}, Detached: true,
			DetachedBody: func(any, *Event) { r.Abort(errStop) }})
		for i := 1; i < batchChunk; i++ {
			specs = append(specs, Spec{Label: "r", InOut: []graph.Key{graph.Key(i)}, Body: func(any) {}})
		}
		r.SubmitBatch(specs)
		waited := make(chan error, 1)
		go func() { waited <- r.Taskwait() }()
		select {
		case err := <-waited:
			if !errors.Is(err, errStop) {
				t.Fatalf("round %d: Taskwait = %v, want the abort cause", round, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: Taskwait hung with %d live tasks", round, r.Graph().Live())
		}
		assertNoDetached(t, r)
	}
	r.Close()
}

// TestSubmitBatchConcurrentProducers drives SubmitBatch from several
// goroutines on disjoint key ranges while workers execute.
func TestSubmitBatchConcurrentProducers(t *testing.T) {
	rt := New(Config{Workers: 4, Opts: graph.OptAll})
	const producers = 4
	const batches = 20
	const batchLen = 40
	var ran atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			base := graph.Key(1000 * (p + 1))
			specs := make([]Spec, 0, batchLen)
			for b := 0; b < batches; b++ {
				specs = specs[:0]
				for i := 0; i < batchLen; i++ {
					k := base + graph.Key(i%7)
					specs = append(specs, Spec{
						Label: "w",
						InOut: []graph.Key{k},
						Body:  func(any) { ran.Add(1) },
					})
				}
				rt.SubmitBatch(specs)
			}
		}(p)
	}
	wg.Wait()
	rt.Close()
	if got := ran.Load(); got != producers*batches*batchLen {
		t.Fatalf("ran %d of %d", got, producers*batches*batchLen)
	}
}

// TestSubmitBatchVerifyObserve checks the verifier observes batched
// submissions without re-serializing them: the audit sees every task of
// a batch (including inoutset redirects) and a clean run stays clean.
func TestSubmitBatchVerifyObserve(t *testing.T) {
	rt := New(Config{Workers: 2, Opts: graph.OptAll, Verify: verify.Observe})
	shared := make([]int, 1)
	specs := []Spec{
		{Label: "w1", InOut: []graph.Key{7}, Body: func(any) { shared[0]++ }},
		{Label: "w2", InOut: []graph.Key{7}, Body: func(any) { shared[0]++ }},
		{Label: "s1", InOutSet: []graph.Key{8}, Body: func(any) {}},
		{Label: "s2", InOutSet: []graph.Key{8}, Body: func(any) {}},
		{Label: "rd", In: []graph.Key{7, 8}, Body: func(any) { _ = shared[0] }},
	}
	rt.SubmitBatch(specs)
	rt.Taskwait()
	rt.Close()
	rep := rt.Verify()
	if !rep.OK() {
		t.Fatalf("clean batched run reported: %v", rep)
	}
	if rep.Tasks < len(specs) {
		t.Fatalf("audit saw %d tasks, want at least the %d batched", rep.Tasks, len(specs))
	}
}

// TestSubmitBatchPersistentDivergence: a Persistent body that batches
// different dependences on replay iterations is caught as divergence.
func TestSubmitBatchPersistentDivergence(t *testing.T) {
	rt := New(Config{Workers: 2, Opts: graph.OptAll, Verify: verify.Observe})
	defer rt.Close()
	err := rt.Persistent(3, func(iter int) {
		k := graph.Key(1)
		if iter == 2 {
			k = 2 // structure mutates on the last replay
		}
		rt.SubmitBatch([]Spec{
			{Label: "a", InOut: []graph.Key{k}, Body: func(any) {}},
			{Label: "b", In: []graph.Key{k}, Body: func(any) {}},
		})
	})
	if err == nil {
		t.Fatal("diverging batched replay not reported")
	}
}

// TestSubmitBatchPersistentReplay uses SubmitBatch inside a Persistent
// region with verification on: recording and replays must agree.
func TestSubmitBatchPersistentReplay(t *testing.T) {
	rt := New(Config{Workers: 2, Opts: graph.OptAll, Verify: verify.Observe})
	defer rt.Close()
	const iters = 5
	const chunksN = 8
	count := make([]int, chunksN)
	specs := make([]Spec, 0, chunksN)
	err := rt.Persistent(iters, func(iter int) {
		specs = specs[:0]
		for c := 0; c < chunksN; c++ {
			c := c
			specs = append(specs, Spec{
				Label: "step",
				InOut: []graph.Key{graph.Key(c)},
				Body:  func(any) { count[c]++ },
			})
		}
		rt.SubmitBatch(specs)
	})
	if err != nil {
		t.Fatalf("Persistent: %v", err)
	}
	for c, n := range count {
		if n != iters {
			t.Fatalf("chunk %d ran %d times, want %d", c, n, iters)
		}
	}
	if rep := rt.Verify(); !rep.OK() {
		t.Fatalf("persistent batched run reported: %v", rep)
	}
}
