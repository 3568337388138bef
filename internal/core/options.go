package core

// Options carries the cross-cutting execution knobs shared by every miner:
// Workers, Partitions and Progress. The zero value reproduces the paper's
// single-threaded uniform platform, and no value changes the mined bits.
// Each miner has one execution path (work-stealing recursion and the
// internal/kernel postings and DP kernels); the kernels' scalar references
// are test oracles in that package's tests.
type Options struct {
	// Workers bounds the number of goroutines a miner may use for its
	// parallel phases: 0 or 1 means serial (the paper's platform), n > 1
	// means at most n workers, and any negative value means GOMAXPROCS.
	//
	// Parallel execution is deterministic: a miner must return an identical
	// ResultSet for every Workers value (shard decompositions depend only on
	// the input, and shard merges happen in canonical order).
	Workers int
	// Partitions splits the mine into a SON-style two-phase run over this
	// many horizontal database partitions: phase 1 mines each partition
	// independently at the partition-relative candidate threshold, phase 2
	// verifies the unioned candidates against the full database with the
	// target algorithm's own counting machinery (see umine/internal/
	// partition). 0 or 1 means the ordinary single-shot mine.
	//
	// Partitioning is a construction-time knob: it is honored by the
	// registry constructors (algo.NewWith and the public NewMinerWith),
	// which wrap the target miner in the partition engine. ApplyOptions
	// cannot retrofit it onto an already-built miner and ignores it, like
	// any other unsupported knob. Partition boundaries depend only on the
	// database size and the partition count — never on Workers — and the
	// merged result is bit-identical to a single-shot mine at every
	// Partitions and Workers value.
	Partitions int
	// Progress, when non-nil, observes the run as it executes: miners emit
	// ProgressEvents at their cooperative checkpoints (level boundaries,
	// prefix-subtree completions) carrying the work counters accumulated so
	// far. Observation is passive — installing a Progress hook never changes
	// the mined results. See ProgressFunc for the concurrency contract.
	Progress ProgressFunc
}

// ParallelMiner is implemented by miners whose execution can be sharded
// over a bounded worker pool. Miners without a parallel phase simply do not
// implement it; callers apply Options best-effort via ApplyOptions.
type ParallelMiner interface {
	Miner
	// SetWorkers installs the Options.Workers knob.
	SetWorkers(workers int)
}

// RestrictableMiner is implemented by miners whose search can be confined
// to a pre-computed candidate superset. With a restriction installed the
// miner never reports — and never descends into, counts or verifies — an
// itemset for which allow returns false; everything the restriction admits
// is computed exactly as an unrestricted run would compute it, so when the
// allowed set is a superset of the run's true result the restricted run is
// bit-identical to the unrestricted one while paying only for the allowed
// candidates. This is the hook behind phase 2 of the SON partition engine
// (umine/internal/partition).
//
// The allow function may be called concurrently from worker goroutines when
// Workers permits parallel execution, and may receive transient itemsets it
// must not retain. nil removes the restriction.
type RestrictableMiner interface {
	Miner
	// SetRestrict installs (or, with nil, removes) the candidate
	// restriction.
	SetRestrict(allow func(Itemset) bool)
}

// ObservableMiner is implemented by miners that stream ProgressEvents
// during a run. All registered miners implement it; the interface exists so
// ApplyOptions can install the hook without per-miner knowledge.
type ObservableMiner interface {
	Miner
	// SetProgress installs the Options.Progress observer (nil disables).
	SetProgress(fn ProgressFunc)
}

// ApplyOptions installs opts on the miner when it supports them and reports
// whether anything was applied. Unsupported knobs are silently ignored —
// serial, unobserved execution is always a valid interpretation of any
// Options value.
func ApplyOptions(m Miner, opts Options) bool {
	applied := false
	if pm, ok := m.(ParallelMiner); ok {
		pm.SetWorkers(opts.Workers)
		applied = true
	}
	if om, ok := m.(ObservableMiner); ok && opts.Progress != nil {
		om.SetProgress(opts.Progress)
		applied = true
	}
	return applied
}
