package algo

import (
	"context"
	"math/rand"
	"testing"

	"umine/internal/core"
	"umine/internal/core/coretest"
	"umine/internal/obsq"
)

// TestExplainStepsSumToTotals: the depth-first miners' subtree events are
// cumulative snapshots, so an EXPLAIN's per-step deltas attribute every
// counted unit of work to exactly one step — summed over the steps, each
// additive MiningStats counter equals the run totals, at every worker
// count and with forked subtrees in play. PeakTrackedBytes is a high-water
// mark, not a sum, and is left out.
func TestExplainStepsSumToTotals(t *testing.T) {
	// Wide enough that prefix subtrees cross both fork cutoffs.
	db := coretest.RandomDB(rand.New(rand.NewSource(77)), 1500, 12, 0.6)
	for _, name := range []string{"UH-Mine", "NDUH-Mine", "UFP-growth"} {
		for _, workers := range []int{1, 4} {
			col := obsq.NewCollector(nil)
			m := MustNewWith(name, core.Options{Workers: workers, Progress: col.Progress()})
			rs, err := m.Mine(context.Background(), db, cancelThresholds(m))
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			var ex obsq.Explanation
			col.Fill(&ex)
			var sum core.MiningStats
			subtrees := 0
			for _, s := range ex.Steps {
				sum.Add(s.MiningStats)
				if s.Phase == string(core.PhaseSubtree) {
					subtrees++
				}
			}
			if subtrees == 0 || ex.Sched == nil || ex.Sched.TasksSpawned+ex.Sched.ForksInline <= int64(subtrees) {
				t.Fatalf("%s workers=%d: %d subtree steps, sched %+v; want subtrees with forks", name, workers, subtrees, ex.Sched)
			}
			want := rs.Stats
			if ex.Totals != want {
				t.Errorf("%s workers=%d: explain totals %+v, run stats %+v", name, workers, ex.Totals, want)
			}
			sum.PeakTrackedBytes, want.PeakTrackedBytes = 0, 0
			if sum != want {
				t.Errorf("%s workers=%d: steps sum to %+v, totals %+v", name, workers, sum, want)
			}
		}
	}
}
