package parallel

import (
	"context"
	"errors"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"umine/internal/core"
)

// stealFib is the recursive test workload: a naive Fibonacci tree whose
// shape (and hence fork set) is a pure function of the inputs, mirroring how
// the miners decide forks from occurrence-list sizes. Results accumulate
// into a shared commutative sum, the merge discipline the scheduler
// requires.
func stealFib(f *Forker, n int, cutoff int, sum *atomic.Int64) {
	if n < 2 {
		sum.Add(int64(n))
		return
	}
	if n >= cutoff {
		// Fork decision depends on n alone — never on worker availability.
		f.Fork(func(f *Forker) { stealFib(f, n-2, cutoff, sum) })
		stealFib(f, n-1, cutoff, sum)
		return
	}
	stealFib(f, n-1, cutoff, sum)
	stealFib(f, n-2, cutoff, sum)
}

// TestRunStealingDeterministicAcrossWorkers: the same roots produce the same
// result at every worker count, and TasksSpawned (a function of the input)
// is identical while only TasksStolen/ForksInline (observational) may differ.
func TestRunStealingDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) (int64, core.ExecStats) {
		var sum atomic.Int64
		roots := make([]Task, 5)
		for i := range roots {
			n := 18 + i
			roots[i] = func(f *Forker) { stealFib(f, n, 12, &sum) }
		}
		st, err := RunStealing(context.Background(), workers, roots)
		if err != nil {
			t.Fatalf("workers=%d: err=%v", workers, err)
		}
		return sum.Load(), st
	}
	refSum, refStats := run(1)
	if refStats.TasksStolen != 0 {
		t.Fatalf("serial run recorded %d steals", refStats.TasksStolen)
	}
	if refStats.ForksInline == 0 {
		t.Fatalf("serial run recorded no inline forks")
	}
	if refStats.TasksSpawned != 5 {
		t.Fatalf("serial Spawned = %d, want 5 roots", refStats.TasksSpawned)
	}
	for _, workers := range []int{2, 4, 8} {
		sum, st := run(workers)
		if sum != refSum {
			t.Fatalf("workers=%d: sum=%d, serial %d", workers, sum, refSum)
		}
		if st.ForksInline != 0 {
			t.Fatalf("workers=%d: recorded %d inline forks on the parallel path", workers, st.ForksInline)
		}
		// TasksSpawned = roots + forks; forks are input-determined, so the count
		// must match the serial run's roots + inline forks.
		if want := refStats.TasksSpawned + refStats.ForksInline; st.TasksSpawned != want {
			t.Fatalf("workers=%d: Spawned=%d, want %d", workers, st.TasksSpawned, want)
		}
	}
}

// TestRunStealingExecutesEveryTaskOnce: ordered fan-out — each fork marks an
// index-addressed slot, every slot must be marked exactly once.
func TestRunStealingExecutesEveryTaskOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		const n = 500
		counts := make([]int32, n)
		var mark func(f *Forker, lo, hi int)
		mark = func(f *Forker, lo, hi int) {
			if hi-lo <= 8 {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&counts[i], 1)
				}
				return
			}
			mid := (lo + hi) / 2
			f.Fork(func(f *Forker) { mark(f, mid, hi) })
			mark(f, lo, mid)
		}
		_, err := RunStealing(context.Background(), workers, []Task{
			func(f *Forker) { mark(f, 0, n) },
		})
		if err != nil {
			t.Fatalf("workers=%d: err=%v", workers, err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: slot %d marked %d times", workers, i, c)
			}
		}
	}
}

// TestRunStealingStealsUnderSkew: one root holds all the work — the idle
// workers must steal its forked subtrees. The root forks its children and
// then blocks until one has started. Its own worker cannot run them
// meanwhile, so the child that starts was stolen: a steal is certain, not a
// matter of timing.
func TestRunStealingStealsUnderSkew(t *testing.T) {
	var sum atomic.Int64
	started := make(chan struct{})
	var once sync.Once
	st, err := RunStealing(context.Background(), 4, []Task{
		func(f *Forker) {
			for _, n := range []int{22, 21, 20} {
				f.Fork(func(f *Forker) {
					once.Do(func() { close(started) })
					stealFib(f, n, 10, &sum)
				})
			}
			select {
			case <-started:
			case <-time.After(30 * time.Second):
				t.Error("no idle worker started a forked child")
			}
		},
	})
	if err != nil {
		t.Fatalf("err=%v", err)
	}
	if st.TasksSpawned < 2 {
		t.Fatalf("Spawned=%d, want forks beyond the root", st.TasksSpawned)
	}
	if st.TasksStolen == 0 {
		t.Fatalf("no steals under maximal skew (Spawned=%d)", st.TasksSpawned)
	}
}

// TestRunStealingMoreWorkersThanRoots: workers beyond the root count must
// still participate via stealing, not deadlock parked.
func TestRunStealingMoreWorkersThanRoots(t *testing.T) {
	var sum atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err := RunStealing(context.Background(), 8, []Task{
			func(f *Forker) { stealFib(f, 22, 10, &sum) },
		})
		if err != nil {
			t.Errorf("err=%v", err)
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("RunStealing with workers > roots did not complete")
	}
	var ref atomic.Int64
	RunStealing(context.Background(), 1, []Task{
		func(f *Forker) { stealFib(f, 22, 10, &ref) },
	})
	if sum.Load() != ref.Load() {
		t.Fatalf("sum=%d, serial %d", sum.Load(), ref.Load())
	}
}

// TestRunStealingCancel: cancellation mid-run drops queued tasks, returns
// ctx.Err(), and drains every worker goroutine.
func TestRunStealingCancel(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran, late atomic.Int64
		var canceled atomic.Bool
		var spawn func(f *Forker, depth int)
		spawn = func(f *Forker, depth int) {
			// Count only tasks starting after cancel() has returned: the
			// canceling goroutine may be preempted before cancel() fires,
			// and tasks run in that window are legitimately pre-cancel.
			if canceled.Load() {
				late.Add(1)
			}
			if ran.Add(1) == 4 {
				cancel()
				canceled.Store(true)
			}
			if depth == 0 {
				return
			}
			for i := 0; i < 3; i++ {
				f.Fork(func(f *Forker) { spawn(f, depth-1) })
			}
		}
		_, err := RunStealing(ctx, workers, []Task{
			func(f *Forker) { spawn(f, 8) },
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err=%v, want context.Canceled", workers, err)
		}
		// Each worker checks ctx before it claims a task, so at most one
		// claim per worker races the cancel; the 3^8-task tree's other
		// queued tasks are dropped.
		if got := late.Load(); got > int64(Resolve(workers)) {
			t.Errorf("workers=%d: %d tasks started after cancel, want ≤ %d", workers, got, Resolve(workers))
		}
	}
}

func TestRunStealingPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	_, err := RunStealing(ctx, 4, []Task{
		func(f *Forker) { ran.Add(1) },
		func(f *Forker) { ran.Add(1) },
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v, want context.Canceled", err)
	}
	// Workers may claim at most one task each before observing cancellation.
	if got := ran.Load(); got > int64(Resolve(4)) {
		t.Errorf("%d tasks ran under a pre-canceled context", got)
	}
}

// TestRunStealingNoGoroutineLeak: the pool drains synchronously, canceled or
// not.
func TestRunStealingNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 30; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		var n atomic.Int64
		var spawn func(f *Forker, depth int)
		spawn = func(f *Forker, depth int) {
			if n.Add(1) == 10 {
				cancel()
			}
			if depth == 0 {
				return
			}
			f.Fork(func(f *Forker) { spawn(f, depth-1) })
			spawn(f, depth-1)
		}
		RunStealing(ctx, 8, []Task{func(f *Forker) { spawn(f, 10) }})
		cancel()
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRunStealingEmptyRoots: a no-op run returns immediately.
func TestRunStealingEmptyRoots(t *testing.T) {
	st, err := RunStealing(context.Background(), 4, nil)
	if err != nil || st != (core.ExecStats{}) {
		t.Fatalf("st=%+v err=%v", st, err)
	}
}

// TestRunStealingCanonicalMergeOrder: the sorted-at-end merge discipline —
// results collected under a mutex in arbitrary completion order, then
// canonically sorted — is bit-identical across worker counts.
func TestRunStealingCanonicalMergeOrder(t *testing.T) {
	collect := func(workers int) []int {
		var mu sync.Mutex
		var out []int
		var walk func(f *Forker, base, depth int)
		walk = func(f *Forker, base, depth int) {
			if depth == 0 {
				mu.Lock()
				out = append(out, base)
				mu.Unlock()
				return
			}
			f.Fork(func(f *Forker) { walk(f, base*2+1, depth-1) })
			walk(f, base*2, depth-1)
		}
		_, err := RunStealing(context.Background(), workers, []Task{
			func(f *Forker) { walk(f, 1, 10) },
		})
		if err != nil {
			t.Fatalf("workers=%d: err=%v", workers, err)
		}
		sort.Ints(out)
		return out
	}
	ref := collect(1)
	for _, workers := range []int{2, 8} {
		got := collect(workers)
		if len(got) != len(ref) {
			t.Fatalf("workers=%d: %d results, serial %d", workers, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: result[%d]=%d, serial %d", workers, i, got[i], ref[i])
			}
		}
	}
}

// TestChunkSizeForSpanInvariants: the adaptive size is a pure function of
// (n, units), refines ChunkSizeFor (never smaller), and shrinks as density
// grows.
func TestChunkSizeForSpanInvariants(t *testing.T) {
	cases := []struct{ n, units int }{
		{0, 0}, {1, 1}, {100, 400}, {100_000, 300_000},
		{100_000, 5_000_000}, {1_000_000, 2_000_000}, {50_000, 50_000 * 40},
	}
	for _, c := range cases {
		got := ChunkSizeForSpan(c.n, c.units)
		if again := ChunkSizeForSpan(c.n, c.units); again != got {
			t.Fatalf("n=%d units=%d: not deterministic (%d vs %d)", c.n, c.units, got, again)
		}
		if lo := ChunkSizeFor(c.n); got < lo {
			t.Fatalf("n=%d units=%d: span size %d below fixed floor %d", c.n, c.units, got, lo)
		}
	}
	// Density monotonicity: more units per row ⇒ chunks no larger.
	const n = 200_000
	prev := ChunkSizeForSpan(n, n)
	for _, width := range []int{2, 4, 8, 16, 64} {
		cur := ChunkSizeForSpan(n, n*width)
		if cur > prev {
			t.Fatalf("width %d: chunk %d grew past %d", width, cur, prev)
		}
		prev = cur
	}
	// Degenerate shapes fall back to the fixed layout.
	if got := ChunkSizeForSpan(500, 0); got != ChunkSizeFor(500) {
		t.Fatalf("units=0: %d, want fixed %d", got, ChunkSizeFor(500))
	}
}
