// The registry side of the SON partitioned mining engine: queries over each
// entry's phase-1 plan (which expected-support miner generates partition
// candidates, and under which candidate floor; Entry.phase1 and
// Entry.bound) and the constructor that wires a partition.Engine to the
// registry. The engine itself (umine/internal/partition) stays free of
// algorithm knowledge.

package algo

import (
	"context"
	"fmt"

	"umine/internal/core"
	"umine/internal/partition"
)

// PartitionPhase1 returns the registry name of the miner that generates
// phase-1 candidates for the named algorithm in a partitioned mine, and
// whether the algorithm is partition-capable at all. External orchestrators
// (the serving layer's shard backend) use it to mine shards themselves.
func PartitionPhase1(name string) (string, bool) {
	e, ok := lookup(name)
	if !ok || !e.Partition {
		return "", false
	}
	return e.phase1, true
}

// Phase1ThresholdsFor returns the expected-support candidate floor the
// named algorithm's partitioned mines use for phase-1 candidate generation:
// the provable esup lower bound of its acceptance region (own threshold for
// expected-support miners, the Markov / Poisson / Normal inversions for the
// probabilistic families), relaxed by the engine's float-slack margin and
// expressed as thresholds for a database of n transactions. External
// maintainers (the incremental-maintenance ledger, umine/internal/incmine)
// use it as the support cutoff below which an itemset provably cannot be in
// the algorithm's result set. Non-partitionable algorithms (MCSampling) have
// no such floor and are errors.
func Phase1ThresholdsFor(name string, th core.Thresholds, n int) (core.Thresholds, error) {
	e, ok := lookup(name)
	if !ok {
		return core.Thresholds{}, errUnknown(name)
	}
	if !e.Partition {
		return core.Thresholds{}, fmt.Errorf("algo: %s has no expected-support candidate floor", name)
	}
	return partition.Phase1Thresholds(e.bound, th, n)
}

// familySemantics maps a registry family to its frequentness definition.
func familySemantics(f Family) core.Semantics {
	if f == ExpectedSupportFamily {
		return core.ExpectedSupport
	}
	return core.Probabilistic
}

// SemanticsOf returns the named algorithm's frequentness semantics from the
// registry's family metadata — no miner is constructed. Unknown names are
// the registry's unknown-algorithm error.
func SemanticsOf(name string) (core.Semantics, error) {
	e, ok := lookup(name)
	if !ok {
		return core.ExpectedSupport, errUnknown(name)
	}
	return familySemantics(e.Family), nil
}

// NewPartitionEngine returns the SON two-phase partition engine for the
// named algorithm, configured from opts (Partitions, Workers, Progress).
// The engine implements core.Miner; its completed mines are bit-identical
// to single-shot mines of the algorithm. Callers needing custom shard
// execution (e.g. the serving layer's scatter-gather) may override the
// MineShard hook afterwards. Non-partitionable algorithms (MCSampling) and
// unknown names are errors.
func NewPartitionEngine(name string, opts core.Options) (*partition.Engine, error) {
	entry, ok := lookup(name)
	if !ok {
		return nil, errUnknown(name)
	}
	if !entry.Partition {
		return nil, fmt.Errorf("algo: %s does not support partitioned mining", name)
	}
	return &partition.Engine{
		Algorithm: entry.Name,
		Sem:       familySemantics(entry.Family),
		K:         opts.Partitions,
		Workers:   opts.Workers,
		Progress:  opts.Progress,
		Phase1Thresholds: func(th core.Thresholds, n int) (core.Thresholds, error) {
			return partition.Phase1Thresholds(entry.bound, th, n)
		},
		MineShard: func(ctx context.Context, _ int, db *core.Database, th core.Thresholds, workers int) ([]core.Itemset, core.MiningStats, error) {
			m := MustNewWith(entry.phase1, core.Options{Workers: workers})
			rs, err := m.Mine(ctx, db, th)
			if err != nil {
				return nil, core.MiningStats{}, err
			}
			return rs.Itemsets(), rs.Stats, nil
		},
		NewPhase2: func(o core.Options, allow func(core.Itemset) bool) (core.Miner, error) {
			return NewRestricted(entry.Name, o, allow)
		},
	}, nil
}
