package parallel

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestResolve(t *testing.T) {
	cases := []struct{ in, want int }{
		{0, 1},
		{1, 1},
		{2, 2},
		{7, 7},
		{-1, runtime.GOMAXPROCS(0)},
		{-99, runtime.GOMAXPROCS(0)},
	}
	for _, c := range cases {
		if got := Resolve(c.in); got != c.want {
			t.Errorf("Resolve(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

// TestDoRunsEveryTaskExactlyOnce covers serial, fewer-tasks-than-workers and
// more-tasks-than-workers regimes.
func TestDoRunsEveryTaskExactlyOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 16} {
		for _, n := range []int{0, 1, 5, 100} {
			counts := make([]int32, n)
			if err := DoCtx(context.Background(), workers, n, func(i int) {
				atomic.AddInt32(&counts[i], 1)
			}); err != nil {
				t.Fatal(err)
			}
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: task %d ran %d times", workers, n, i, c)
				}
			}
		}
	}
}

// TestDoBoundsConcurrency: never more than Resolve(workers) tasks in
// flight. Each task parks for a moment so that an over-spawned pool (e.g.
// one goroutine per task instead of per worker) piles tasks up concurrently
// and reliably drives the observed peak past the bound.
func TestDoBoundsConcurrency(t *testing.T) {
	const workers, n = 4, 64
	var inFlight, peak int32
	DoCtx(context.Background(), workers, n, func(i int) {
		cur := atomic.AddInt32(&inFlight, 1)
		for {
			p := atomic.LoadInt32(&peak)
			if cur <= p || atomic.CompareAndSwapInt32(&peak, p, cur) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		atomic.AddInt32(&inFlight, -1)
	})
	if peak > workers {
		t.Fatalf("observed %d concurrent tasks, want ≤ %d", peak, workers)
	}
}

func TestMapPreservesOrder(t *testing.T) {
	in := make([]int, 257)
	for i := range in {
		in[i] = i
	}
	for _, workers := range []int{1, 2, 8} {
		out, err := MapCtx(context.Background(), workers, in, func(i, v int) int { return v * v })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
	if got, _ := MapCtx(context.Background(), 4, nil, func(i, v int) int { return v }); len(got) != 0 {
		t.Fatalf("MapCtx over nil returned %d elements", len(got))
	}
}

// TestChunkLayoutIndependentOfWorkers is the determinism invariant: the
// chunk decomposition is a function of (n, size) alone.
func TestChunkLayoutIndependentOfWorkers(t *testing.T) {
	const n, size = 10_000, 1024
	layout := func(workers int) [][2]int {
		out := make([][2]int, NumChunks(n, size))
		DoChunks(workers, n, size, func(c, lo, hi int) {
			out[c] = [2]int{lo, hi}
		})
		return out
	}
	ref := layout(1)
	covered := 0
	for c, r := range ref {
		if c > 0 && r[0] != ref[c-1][1] {
			t.Fatalf("chunk %d starts at %d, previous ended at %d", c, r[0], ref[c-1][1])
		}
		covered += r[1] - r[0]
	}
	if covered != n {
		t.Fatalf("chunks cover %d of %d", covered, n)
	}
	for _, workers := range []int{2, 3, 7} {
		got := layout(workers)
		for c := range ref {
			if got[c] != ref[c] {
				t.Fatalf("workers=%d: chunk %d = %v, serial %v", workers, c, got[c], ref[c])
			}
		}
	}
}

func TestNumChunksEdges(t *testing.T) {
	if got := NumChunks(0, 16); got != 0 {
		t.Errorf("NumChunks(0) = %d", got)
	}
	if got := NumChunks(1, 16); got != 1 {
		t.Errorf("NumChunks(1,16) = %d", got)
	}
	if got := NumChunks(16, 16); got != 1 {
		t.Errorf("NumChunks(16,16) = %d", got)
	}
	if got := NumChunks(17, 16); got != 2 {
		t.Errorf("NumChunks(17,16) = %d", got)
	}
	if got := NumChunks(100, 0); got != NumChunks(100, DefaultChunk) {
		t.Errorf("size 0 does not default: %d", got)
	}
}
