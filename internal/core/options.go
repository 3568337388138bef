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
	// Partitioning is a construction-time knob: the registry constructors
	// (algo.NewWith and the public NewMinerWith) read it and wrap the
	// target miner in the partition engine; MCSampling, the one
	// non-partitionable configuration, mines single-shot. Partition
	// boundaries depend only on the database size and the partition count
	// — never on Workers — and the merged result is bit-identical to a
	// single-shot mine at every Partitions and Workers value.
	Partitions int
	// Progress, when non-nil, observes the run as it executes: miners emit
	// ProgressEvents at their cooperative checkpoints (level boundaries,
	// prefix-subtree completions) carrying the work counters accumulated so
	// far. Observation is passive — installing a Progress hook never changes
	// the mined results. See ProgressFunc for the concurrency contract.
	Progress ProgressFunc
}
