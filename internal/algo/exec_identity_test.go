package algo

import (
	"context"
	"testing"

	"umine/internal/core"
	"umine/internal/dataset"
)

// The execution-path acceptance gate: every registered configuration must
// return a bit-identical ResultSet — itemsets, measure bits AND MiningStats —
// across Workers ∈ {1, 4, 8}, at every threshold pair below. Each miner has
// one execution path (work-stealing recursion, inline when Workers is 1, and
// the internal/kernel intersection and early-rejecting DP kernels, which the
// kernel package's tests pin to their scalar references), so no worker count
// may move a bit. Run under -race with -cpu 1,4,8 in CI, this is also the
// shake-out for scheduler and accumulator races.
func TestExecTuningDeterminism(t *testing.T) {
	// Large enough that counting splits into several chunks, the UH-Mine
	// fan-out has many first-level prefixes, and occurrence lists cross the
	// fork cutoff so subtrees actually land on the stealing pool.
	db := dataset.Accident.GenerateUncertain(0.004, 11)
	workerCounts := []int{1, 4, 8}
	if testing.Short() {
		// Keep the extremes: serial inline recursion vs the widest pool.
		workerCounts = []int{1, 8}
	}
	for _, name := range Names() {
		var ths []core.Thresholds
		switch MustNewWith(name, core.Options{}).Semantics() {
		case core.ExpectedSupport:
			ths = []core.Thresholds{{MinESup: 0.2}}
		case core.Probabilistic:
			// The DP kernel's early rejection must not move a bit where it
			// fires on most candidates (the cold-exact regime) nor where
			// accepted candidates crowd the threshold (a low PFT).
			ths = []core.Thresholds{
				{MinSup: 0.25, PFT: 0.9},
				{MinSup: 0.2, PFT: 0.7},
				{MinSup: 0.25, PFT: 0.05},
			}
			switch {
			case testing.Short() && name != "DPNB" && name != "DPB":
				// Short mode keeps the extra pairs for the DP kernel's miners.
				ths = ths[:1]
			case name == "MCSampling":
				// Its sequential early stop cannot settle below PFT − ε =
				// 0.03 before the full world budget, so a low PFT costs
				// minutes here; it runs no DP kernel either.
				ths = ths[:2]
			}
		}
		for _, th := range ths {
			var ref *core.ResultSet
			for _, w := range workerCounts {
				rs, err := MustNewWith(name, core.Options{Workers: w}).
					Mine(context.Background(), db, th)
				if err != nil {
					t.Fatalf("%s on %s at %+v (workers=%d): %v", name, db.Name, th, w, err)
				}
				if ref == nil {
					ref = rs
					continue
				}
				requireIdenticalResults(t, name, db.Name, workerCounts[0], w, ref, rs)
			}
		}
	}
}
