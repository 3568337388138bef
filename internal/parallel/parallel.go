// Package parallel is the shared parallel-execution layer of the platform:
// a bounded worker pool plus sharded map/merge helpers used by every miner
// family (the apriori counting pass, the exact miners' per-candidate
// verification), plus the work-stealing scheduler (steal.go) and the
// depth-first miners' subtree fan-out built on it (subtree.go).
//
// The paper's uniform platform is single-threaded; parallel execution is an
// extension, so the layer is built around two invariants that keep the
// extension observationally equivalent to the serial platform:
//
//   - determinism: work decomposition never depends on the worker count.
//     Chunk layouts are a function of the input size alone, and all merge
//     helpers combine shard results in shard (= input) order, so a run with
//     W workers produces bit-identical results to a run with 1 worker;
//   - boundedness: at most Resolve(workers) goroutines execute tasks at any
//     moment, however many tasks are submitted. Tasks are claimed from an
//     atomic counter, so uneven task costs (e.g. skewed prefix subtrees in
//     UH-Mine) balance automatically.
//
// The layer is context-aware: the *Ctx variants stop dispatching tasks the
// moment the context is done (cancellation latency bounded by one task),
// drain the pool fully — no goroutine or pool slot outlives the call — and
// return ctx.Err(). The ctx-free DoChunks runs under context.Background();
// a completed run is identical either way.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Resolve normalizes a Workers knob into a concrete goroutine count:
// 0 and 1 mean serial (the paper's platform), n > 1 means n workers, and
// any negative value means GOMAXPROCS.
func Resolve(workers int) int {
	switch {
	case workers < 0:
		return runtime.GOMAXPROCS(0)
	case workers <= 1:
		return 1
	default:
		return workers
	}
}

// DoCtx runs n independent tasks on a bounded pool of Resolve(workers)
// goroutines (never more than n). Tasks are claimed in index order from an
// atomic counter; with workers <= 1 the tasks run inline, in order, with no
// goroutines. DoCtx returns when every claimed task has finished.
//
// Tasks must be independent: they may not assume any ordering between each
// other beyond "claimed in index order", and must write results to
// index-addressed slots (or otherwise synchronize) themselves.
//
// Workers stop claiming new tasks once ctx is done, already-claimed tasks
// run to completion (cancellation latency is bounded by one task), the pool
// fully drains — no goroutine outlives the call — and DoCtx returns
// ctx.Err().
//
// Tasks that were never claimed are simply skipped, so on cancellation the
// index-addressed result slots of unclaimed tasks keep their zero values;
// callers must treat any partial output as invalid once DoCtx reports an
// error. A nil error means every task ran.
func DoCtx(ctx context.Context, workers, n int, task func(i int)) error {
	w := Resolve(workers)
	if w > n {
		w = n
	}
	done := ctx.Done()
	if w <= 1 {
		for i := 0; i < n; i++ {
			if done != nil {
				select {
				case <-done:
					return ctx.Err()
				default:
				}
			}
			task(i)
		}
		return ctx.Err()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				if done != nil {
					select {
					case <-done:
						return
					default:
					}
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				task(i)
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// MapCtx applies fn to every element of in on the bounded pool and returns
// the results in input order. fn receives the element index and value; it
// must be safe for concurrent use when workers > 1. Cancellation is DoCtx's:
// on a non-nil error the returned slice is partial (unclaimed elements hold
// zero values) and must be discarded.
func MapCtx[T, R any](ctx context.Context, workers int, in []T, fn func(i int, v T) R) ([]R, error) {
	out := make([]R, len(in))
	err := DoCtx(ctx, workers, len(in), func(i int) {
		out[i] = fn(i, in[i])
	})
	return out, err
}

// DefaultChunk is the fixed chunk granularity used by DoChunks callers that
// shard a transaction scan. It is a compromise between scheduling overhead
// (larger is cheaper) and load balance (smaller is fairer); because chunk
// layout must not depend on the worker count, it cannot adapt to one.
const DefaultChunk = 1024

// Shard-count bounds for ChunkSizeFor: at most maxShards chunks (bounding
// per-shard accumulator memory) and at least minChunk elements per chunk
// (bounding scheduling overhead on small inputs).
const (
	maxShards = 64
	minChunk  = 512
)

// ChunkSizeFor returns the fixed chunk size used to shard a scan over n
// elements: ⌈n/maxShards⌉ but never below minChunk. The size depends only
// on n — never on the worker count — so the induced chunk layout, and hence
// any chunk-ordered merge of per-chunk partial aggregates, is identical for
// every Workers value.
func ChunkSizeFor(n int) int {
	size := (n + maxShards - 1) / maxShards
	if size < minChunk {
		size = minChunk
	}
	return size
}

// Adaptive chunk sizing (ChunkSizeForSpan): bounds on the cache-footprint
// model. A scanned transaction touches its items and probs columns —
// spanBytesPerUnit bytes per unit — and the chunk should stay resident in a
// mid-level cache while its partial aggregates are live, so chunks grow on
// narrow (sparse) rows, where per-chunk flush overhead dominates, and stay
// small on wide (dense) rows, where the scan working set is the constraint.
const (
	// spanBytesPerUnit is one arena unit's scan footprint: a 4-byte item
	// plus an 8-byte probability.
	spanBytesPerUnit = 12
	// chunkTargetBytes is the per-chunk working-set budget, ≈ half of a
	// typical 512 KiB L2 slice — the rest is left to the candidate trie or
	// postings cursors sharing the cache.
	chunkTargetBytes = 256 << 10
	// minShardsWide keeps at least this many chunks on large inputs even
	// when rows are very narrow, so the fixed-chunk pool retains work to
	// balance. Worker-count-independent, like every sizing constant here.
	minShardsWide = 16
)

// ChunkSizeForSpan returns the chunk size for scanning n transactions
// holding units total arena units: the largest chunk whose estimated scan
// footprint (mean row width × spanBytesPerUnit) fits chunkTargetBytes,
// clamped to [ChunkSizeFor(n), ⌈n/minShardsWide⌉]. The result is a pure
// function of the view's shape (n, units) — never the worker count — so the
// chunk layout and the partial-sum grouping it pins are identical for every
// Workers value, and both counting plans (horizontal chunks, vertical
// per-chunk flushes) derive the same grouping from the same view.
//
// The lower clamp keeps ChunkSizeForSpan a refinement of ChunkSizeFor: it
// can only merge the fixed layout's chunks (fewer, larger), never split
// them, so per-chunk accumulator memory stays bounded by maxShards buffers.
func ChunkSizeForSpan(n, units int) int {
	lo := ChunkSizeFor(n)
	if n <= 0 || units <= 0 {
		return lo
	}
	// Ceiling mean row width: err toward narrower chunks on mixed rows.
	width := (units + n - 1) / n
	size := chunkTargetBytes / (width * spanBytesPerUnit)
	if size < lo {
		return lo
	}
	if hi := (n + minShardsWide - 1) / minShardsWide; size > hi {
		size = hi
		if size < lo {
			size = lo
		}
	}
	return size
}

// NumChunks returns how many fixed-size chunks cover [0, n): ⌈n/size⌉
// (zero when n is zero). The layout depends only on n and size — never on
// the worker count — so per-chunk shard results can be merged in chunk
// order with identical outcomes for every worker count, including 1.
func NumChunks(n, size int) int {
	if size <= 0 {
		size = DefaultChunk
	}
	return (n + size - 1) / size
}

// DoChunks splits [0, n) into NumChunks(n, size) contiguous fixed-size
// chunks and processes them on the bounded pool. The task receives the
// chunk index and the half-open range [lo, hi) it covers.
func DoChunks(workers, n, size int, task func(chunk, lo, hi int)) {
	DoChunksCtx(context.Background(), workers, n, size, task)
}

// DoChunksCtx is DoChunks under a context, with DoCtx's cancellation
// semantics: the pool stops dispatching chunks once ctx is done (latency
// bounded by one chunk) and the call returns ctx.Err().
func DoChunksCtx(ctx context.Context, workers, n, size int, task func(chunk, lo, hi int)) error {
	if size <= 0 {
		size = DefaultChunk
	}
	nc := NumChunks(n, size)
	return DoCtx(ctx, workers, nc, func(c int) {
		lo := c * size
		hi := lo + size
		if hi > n {
			hi = n
		}
		task(c, lo, hi)
	})
}
