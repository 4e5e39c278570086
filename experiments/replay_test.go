package experiments

import (
	"bytes"
	"testing"
)

// TestReplaySmoke runs the persistent-replay benchmark at CI size and
// checks the result validates, round-trips through JSON, and keeps the
// compiled path allocation-free — the deterministic half of the gate.
// Speedup ratios are printed, not asserted: smoke sizes on a loaded
// test machine are too noisy for a timing gate here (the committed
// BENCH_replay.json carries the gated default-size numbers).
func TestReplaySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("replay benchmark in -short mode")
	}
	p := SmokeReplayParams()
	// Up to six one-off allocations per run (pool refills after a GC,
	// slice growth) and tens of microseconds of wake-up jitter land at
	// random in either region length, independent of how many
	// iterations it replays. Over the smoke size's 8 steady iterations
	// that noise alone crosses the 0.01 allocs/task gate or makes the
	// differenced wall non-positive in a few runs out of a hundred; a
	// 28-iteration steady region and the minimum over ten interleaved
	// repeats keep it well below both. The task graphs are unchanged.
	p.Iters = 30
	p.Repeats = 10
	res, err := RunReplay(p)
	if err != nil {
		t.Fatalf("RunReplay: %v", err)
	}
	if err := res.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	for _, row := range res.Rows {
		if row.Mode == "frozen-compiled" && row.AllocsPerTask > 0.01 {
			t.Errorf("%s compiled replay allocates %.4f/task (%.1f/iter), want 0",
				row.Workload, row.AllocsPerTask, row.AllocsPerIter)
		}
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	back, err := ReadReplayJSON(buf.Bytes())
	if err != nil {
		t.Fatalf("ReadReplayJSON: %v", err)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("round-tripped result invalid: %v", err)
	}
	if err := CheckReplay(&res, back, 0, 0.01); err != nil {
		t.Fatalf("CheckReplay against itself: %v", err)
	}
	PrintReplay(&buf, &res)
	t.Logf("\n%s", buf.String())
}
