package parallel

import (
	"context"
	"reflect"
	"testing"

	"umine/internal/core"
)

// subtreeFib mines a Fibonacci tree into acc: every node counts one
// candidate and every leaf reports one result. Subtrees of n ≥ 10 fork, a
// decision that reads n alone.
func subtreeFib(acc *Subtree, prefix []core.Item, n int) {
	acc.Stats.CandidatesGenerated++
	if n < 2 {
		acc.Results = append(acc.Results, core.Result{Itemset: core.NewItemset(prefix...)})
		return
	}
	for _, d := range []int{1, 2} {
		ext := append(append([]core.Item(nil), prefix...), core.Item(len(prefix)*2+d))
		if n >= 10 {
			acc.Fork(func(child *Subtree) bool { subtreeFib(child, ext, n-d); return false })
			continue
		}
		subtreeFib(acc, ext, n-d)
	}
}

// TestMineSubtreesDeterministicAndCumulative: results and stats match the
// serial fan-out at every worker count, and the subtree events form a
// monotone stream whose last snapshot is the final total.
func TestMineSubtreesDeterministicAndCumulative(t *testing.T) {
	base := core.MiningStats{DBScans: 2}
	run := func(workers int) ([]core.Result, core.MiningStats, []core.ProgressEvent) {
		var events []core.ProgressEvent
		progress := func(ev core.ProgressEvent) { events = append(events, ev) }
		results, stats, err := MineSubtrees(context.Background(), workers, "fib", progress, nil, base, 4,
			func(root int, acc *Subtree) bool {
				subtreeFib(acc, []core.Item{core.Item(100 + root)}, 12+root)
				return false
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return results, stats, events
	}
	refResults, refStats, _ := run(1)
	for _, workers := range []int{1, 4, 8} {
		results, stats, events := run(workers)
		if !reflect.DeepEqual(results, refResults) || stats != refStats {
			t.Fatalf("workers=%d: results/stats differ from the serial run", workers)
		}
		var subtrees []core.MiningStats
		for _, ev := range events {
			if ev.Phase == core.PhaseSubtree {
				subtrees = append(subtrees, ev.Stats)
			}
		}
		if len(subtrees) != 4 {
			t.Fatalf("workers=%d: %d subtree events, want 4", workers, len(subtrees))
		}
		prev := base
		for i, s := range subtrees {
			if s.CandidatesGenerated <= prev.CandidatesGenerated || s.DBScans != base.DBScans {
				t.Fatalf("workers=%d: subtree event %d %+v after %+v is not cumulative", workers, i, s, prev)
			}
			prev = s
		}
		if prev != stats {
			t.Fatalf("workers=%d: last subtree snapshot %+v, totals %+v", workers, prev, stats)
		}
		if last := events[len(events)-1]; last.Phase != core.PhaseDone || last.Stats != stats {
			t.Fatalf("workers=%d: last event %+v, want PhaseDone with the totals", workers, last)
		}
	}
}
