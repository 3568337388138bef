package parallel

import (
	"context"
	"sync"
	"sync/atomic"

	"umine/internal/core"
)

// The depth-first miners' root fan-out. UFP-growth (one root per top-level
// header item) and UH-Mine/NDUH-Mine (one root per frequent singleton) run
// the same skeleton on RunStealing: every root is one task, large subtrees
// fork back onto the pool mid-recursion, every task mines into its own
// Subtree accumulator, and the accumulators fold back in a fixed order. The
// miners supply only their per-task state and fork cutoff.

// Subtree is one task's private accumulator: the results and counters of the
// work it ran inline, plus the Subtrees of the work it forked away, in fork
// (DFS) order. No locks — exactly one task writes a Subtree, and the
// scheduler's completion edges order those writes before the fold.
type Subtree struct {
	Results []core.Result
	Stats   core.MiningStats

	children []*Subtree
	root     *subtreeRoot
	forker   *Forker // valid only while the owning task runs
}

// Fork hands task to the scheduler with a fresh child Subtree appended in
// fork order, so the fold reproduces the inline recursion's aggregate. It
// must be called from the task that owns s. task reports whether it stopped
// on cancellation. Anything task captures must be private to it (copy the
// caller's reused prefix buffers before forking).
func (s *Subtree) Fork(task func(child *Subtree) (canceled bool)) {
	child := &Subtree{root: s.root}
	s.children = append(s.children, child)
	s.root.pending.Add(1)
	s.forker.Fork(func(f *Forker) {
		child.forker = f
		child.root.finish(task(child))
	})
}

// fold appends the Subtree's results and counters depth-first in fork order
// (result order is canonicalized by core.SortResults afterwards; counters
// are sums and peaks maxima, so the fold order cannot move a bit).
func (s *Subtree) fold(results []core.Result, stats *core.MiningStats) []core.Result {
	results = append(results, s.Results...)
	stats.Add(s.Stats)
	for _, c := range s.children {
		results = c.fold(results, stats)
	}
	return results
}

// subtreeRoot aggregates one root's tasks. pending counts the root task plus
// its live forked descendants; the task that brings it to zero owns the
// completed Subtree tree (the decrement publishes every task's writes),
// folds it, and reports the root complete.
type subtreeRoot struct {
	run      *subtreeRun
	tree     Subtree
	pending  atomic.Int64
	canceled atomic.Bool
	results  []core.Result
	stats    core.MiningStats
}

// finish retires one task of this root.
func (r *subtreeRoot) finish(canceled bool) {
	if canceled {
		r.canceled.Store(true)
	}
	if r.pending.Add(-1) != 0 {
		return
	}
	r.results = r.tree.fold(nil, &r.stats)
	if r.canceled.Load() {
		// A canceled root's partials are discarded by the caller; reporting
		// it would count work that never merges.
		return
	}
	r.run.complete(r.stats)
}

// subtreeRun is the progress state shared by one MineSubtrees call.
type subtreeRun struct {
	name     string
	progress core.ProgressFunc
	base     core.MiningStats // pre-fan-out totals

	mu    sync.Mutex
	total core.MiningStats // completed roots, in completion order
}

// complete adds one completed root to the running total and emits the
// cumulative snapshot under the same lock, so PhaseSubtree events form a
// monotone stream and an observer's deltas give each root its own counters.
// Emitting after unlocking would let two completions reach the observer in
// the opposite order; holding the lock across the call is safe because the
// core.ProgressFunc contract requires it to record and return.
func (run *subtreeRun) complete(stats core.MiningStats) {
	run.mu.Lock()
	defer run.mu.Unlock()
	run.total.Add(stats)
	snap := run.base
	snap.Add(run.total)
	run.progress.Emit(run.name, core.PhaseSubtree, 1, snap)
}

// MineSubtrees runs roots depth-first subtree tasks on RunStealing and
// returns results and stats extended by everything they mined. results and
// stats are the totals before the fan-out (e.g. the singleton pass); task
// mines root number i into acc, forking large subtrees through acc.Fork, and
// reports whether it stopped on cancellation.
//
// Each root's Subtree tree folds in fork order and roots fold in index
// order, then results are canonically sorted, so results, stats and the
// fork tree are bit-identical for every worker count and steal
// interleaving. Progress receives one cumulative PhaseSubtree event per
// completed root (possibly from concurrent workers), the scheduler's
// PhaseExec report and the final PhaseDone. A canceled run returns
// ctx.Err() and emits neither of the last two.
func MineSubtrees(ctx context.Context, workers int, name string, progress core.ProgressFunc,
	results []core.Result, stats core.MiningStats, roots int,
	task func(root int, acc *Subtree) (canceled bool)) ([]core.Result, core.MiningStats, error) {
	run := &subtreeRun{name: name, progress: progress, base: stats}
	rs := make([]*subtreeRoot, roots)
	tasks := make([]Task, roots)
	for i := range rs {
		r := &subtreeRoot{run: run}
		r.tree.root = r
		r.pending.Store(1)
		rs[i] = r
		tasks[i] = func(f *Forker) {
			r.tree.forker = f
			r.finish(task(i, &r.tree))
		}
	}
	exec, err := RunStealing(ctx, workers, tasks)
	if err != nil {
		return nil, stats, err
	}
	for _, r := range rs {
		results = append(results, r.results...)
		stats.Add(r.stats)
	}
	core.SortResults(results)
	progress.EmitExec(name, exec)
	progress.Emit(name, core.PhaseDone, core.MaxItemsetLen(results), stats)
	return results, stats, nil
}
