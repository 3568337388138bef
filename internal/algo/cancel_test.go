package algo

// The cancellation contract, asserted per registered miner configuration:
//
//   - a pre-canceled context returns ctx.Err() immediately (no mining);
//   - a mid-run cancellation (triggered from the miner's own first
//     Progress checkpoint, so it provably lands while the run is alive)
//     returns ctx.Err() promptly;
//   - no goroutines leak: the shared pool stops dispatching and fully
//     drains before Mine returns, at every worker count.
//
// The CI pipeline runs this file twice under -race (`make test-cancel`) to
// shake out order-dependent flakes in the cancellation paths.

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"umine/internal/core"
	"umine/internal/core/coretest"
)

// cancelDB is sized so every miner family passes through several
// cooperative checkpoints (multiple levels, many prefix subtrees) before
// finishing: cancellation triggered at the first checkpoint is guaranteed
// to be mid-run.
func cancelDB() *core.Database {
	return coretest.RandomDB(rand.New(rand.NewSource(77)), 400, 12, 0.6)
}

// cancelThresholds returns low thresholds (many frequent itemsets, deep
// levels) matching the miner's semantics.
func cancelThresholds(m core.Miner) core.Thresholds {
	if m.Semantics() == core.ExpectedSupport {
		return core.Thresholds{MinESup: 0.05}
	}
	return core.Thresholds{MinSup: 0.1, PFT: 0.5}
}

func TestCancelPreCanceledContext(t *testing.T) {
	db := cancelDB()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, e := range Entries() {
		for _, workers := range []int{1, 4} {
			m := MustNewWith(e.Name, core.Options{Workers: workers})
			start := time.Now()
			rs, err := m.Mine(ctx, db, cancelThresholds(m))
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%s workers=%d: pre-canceled ctx: got (%v, %v), want context.Canceled", e.Name, workers, rs, err)
			}
			if rs != nil {
				t.Errorf("%s workers=%d: pre-canceled ctx returned results", e.Name, workers)
			}
			if d := time.Since(start); d > 2*time.Second {
				t.Errorf("%s workers=%d: pre-canceled ctx took %v", e.Name, workers, d)
			}
		}
	}
}

func TestCancelMidRun(t *testing.T) {
	db := cancelDB()
	for _, e := range Entries() {
		for _, workers := range []int{1, 4} {
			ctx, cancel := context.WithCancel(context.Background())
			// Cancel from the miner's own first checkpoint: the run is
			// provably alive, and the return must then be prompt (bounded
			// by one chunk/candidate/subtree of work).
			m := MustNewWith(e.Name, core.Options{
				Workers:  workers,
				Progress: func(core.ProgressEvent) { cancel() },
			})
			rs, err := m.Mine(ctx, db, cancelThresholds(m))
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%s workers=%d: mid-run cancel: got (results=%v, err=%v), want context.Canceled",
					e.Name, workers, rs != nil, err)
			}
		}
	}
}

func TestCancelDeadlineExceeded(t *testing.T) {
	// A deadline (the serving layer's per-request timeout shape) aborts the
	// same way a cancel does, and miners must surface ctx.Err() verbatim —
	// DeadlineExceeded here, not a hardcoded Canceled. The deadline is in
	// the past so the test is immune to timer-firing races against fast
	// miners.
	db := cancelDB()
	for _, e := range Entries() {
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		m := MustNewWith(e.Name, core.Options{Workers: 2})
		_, err := m.Mine(ctx, db, cancelThresholds(m))
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s: expired deadline: err=%v, want context.DeadlineExceeded", e.Name, err)
		}
	}
}

func TestCancelNoGoroutineLeak(t *testing.T) {
	db := cancelDB()
	before := runtime.NumGoroutine()
	for _, e := range Entries() {
		ctx, cancel := context.WithCancel(context.Background())
		m := MustNewWith(e.Name, core.Options{
			Workers:  4,
			Progress: func(core.ProgressEvent) { cancel() },
		})
		if _, err := m.Mine(ctx, db, cancelThresholds(m)); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: mid-run cancel: err=%v", e.Name, err)
		}
		cancel()
	}
	// The pool drains synchronously before Mine returns; the retry loop
	// only absorbs runtime bookkeeping goroutines winding down.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if after := runtime.NumGoroutine(); after <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after canceled mines: before=%d after=%d", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCancelCompletedRunUnaffected pins the guarantee that installing the
// cancellation/progress plumbing changed nothing for completed runs: a mine
// under a cancelable-but-never-canceled context with an observer attached
// is bit-identical to a plain background run.
func TestCancelCompletedRunUnaffected(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: full per-miner comparison is the long-suite/CI cancel job's work")
	}
	db := cancelDB()
	for _, e := range Entries() {
		base := MustNewWith(e.Name, core.Options{})
		want, err := base.Mine(context.Background(), db, cancelThresholds(base))
		if err != nil {
			t.Fatalf("%s: baseline: %v", e.Name, err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		events := 0
		m := MustNewWith(e.Name, core.Options{Workers: 1, Progress: func(core.ProgressEvent) { events++ }})
		got, err := m.Mine(ctx, db, cancelThresholds(m))
		cancel()
		if err != nil {
			t.Fatalf("%s: observed run: %v", e.Name, err)
		}
		if events == 0 {
			t.Errorf("%s: no ProgressEvents streamed", e.Name)
		}
		requireIdenticalResults(t, e.Name, "cancelDB(observed-vs-plain)", 0, 1, want, got)
	}
}

// TestCancelProgressDoneOnEmptyRun pins the observer contract on the
// degenerate path: a completed run that finds nothing frequent still ends
// with a PhaseDone event (every early return included).
func TestCancelProgressDoneOnEmptyRun(t *testing.T) {
	db := cancelDB()
	for _, e := range Entries() {
		var phases []core.ProgressPhase
		m := MustNewWith(e.Name, core.Options{Progress: func(ev core.ProgressEvent) {
			phases = append(phases, ev.Phase)
		}})
		th := core.Thresholds{MinESup: 0.999}
		if m.Semantics() == core.Probabilistic {
			th = core.Thresholds{MinSup: 0.999, PFT: 0.999}
		}
		rs, err := m.Mine(context.Background(), db, th)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if rs.Len() != 0 {
			t.Fatalf("%s: thresholds not empty-inducing (%d results); adjust the test", e.Name, rs.Len())
		}
		if len(phases) == 0 || phases[len(phases)-1] != core.PhaseDone {
			t.Errorf("%s: empty completed run emitted %v, want a trailing PhaseDone", e.Name, phases)
		}
	}
}

// TestCancelProgressStreamsMidRun asserts events arrive before completion
// (not just a trailing done event): every miner must emit at least one
// non-done event on this workload.
func TestCancelProgressStreamsMidRun(t *testing.T) {
	db := cancelDB()
	for _, e := range Entries() {
		var phases []core.ProgressPhase
		m := MustNewWith(e.Name, core.Options{Progress: func(ev core.ProgressEvent) {
			phases = append(phases, ev.Phase)
		}})
		if _, err := m.Mine(context.Background(), db, cancelThresholds(m)); err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if len(phases) < 2 {
			t.Fatalf("%s: %d ProgressEvents, want mid-run events plus the done event", e.Name, len(phases))
		}
		if last := phases[len(phases)-1]; last != core.PhaseDone {
			t.Errorf("%s: last event phase %q, want %q", e.Name, last, core.PhaseDone)
		}
		for _, ph := range phases[:len(phases)-1] {
			if ph == core.PhaseDone {
				t.Errorf("%s: PhaseDone emitted before the end", e.Name)
			}
		}
	}
}
