package core

// Progress observability: every miner streams ProgressEvents at its
// cooperative cancellation checkpoints, so long-running jobs can be watched
// (and canceled from a watcher) without touching the mined results. The
// paper's platform reports counters only after a run completes; the serving
// deployment needs them *during* the run — a request that will blow its
// deadline is cheaper to abort at level 3 than to discover dead at the end.

// ProgressPhase labels where in its run a miner emitted an event.
type ProgressPhase string

const (
	// PhaseLevel is a breadth-first level boundary (Apriori framework):
	// the level's candidates are counted and decided.
	PhaseLevel ProgressPhase = "level"
	// PhaseSubtree is one depth-first prefix subtree completing (UH-Mine
	// first-level fan-out, UFP-growth top-level header items).
	PhaseSubtree ProgressPhase = "subtree"
	// PhasePartition is one database partition completing its independent
	// phase-1 mine inside a SON-style partitioned run (see
	// umine/internal/partition). Level carries the 1-based partition
	// ordinal and Stats the completed partition's own work counters.
	PhasePartition ProgressPhase = "partition"
	// PhaseShardRetry is a remote shard request being retried after a
	// transport failure or per-attempt timeout (umine/internal/shardrpc).
	// Level carries the 1-based shard ordinal; Stats is empty — robustness
	// events describe the transport, not mining work.
	PhaseShardRetry ProgressPhase = "shard-retry"
	// PhaseShardHedge is a hedged duplicate request being launched against
	// a straggling shard; the first response to arrive wins and the loser
	// is canceled. Level carries the 1-based shard ordinal.
	PhaseShardHedge ProgressPhase = "shard-hedge"
	// PhaseShardFailover is a shard's phase-1 mine degrading to the
	// coordinator's local slice after the remote exhausted its retries.
	// Level carries the 1-based shard ordinal.
	PhaseShardFailover ProgressPhase = "shard-failover"
	// PhaseShardRepush is the coordinator re-pushing a dataset slice to a
	// shard that rejected a pinned version it does not hold (the coherence
	// protocol's invalidation path). Level carries the 1-based shard
	// ordinal.
	PhaseShardRepush ProgressPhase = "shard-repush"
	// PhaseExec is a run's execution-layer report: scheduler and kernel
	// counters (ExecStats) that depend on timing or worker count and
	// therefore live outside MiningStats. Emitted at most once per run,
	// before the done event; Stats is empty and Exec carries the counters.
	PhaseExec ProgressPhase = "exec"
	// PhaseDone is the final event of a completed (uncanceled) run, with
	// the run's total counters.
	PhaseDone ProgressPhase = "done"
)

// ProgressEvent is one observation streamed during a mining run.
type ProgressEvent struct {
	// Algorithm is the emitting miner's registry name.
	Algorithm string
	// Phase labels the checkpoint kind.
	Phase ProgressPhase
	// Level is the depth the event refers to: the candidate length k for
	// level events, the rooting prefix length (1) for subtree events, the
	// deepest mined level for done events.
	Level int
	// Stats snapshots the work counters accumulated so far. For subtree
	// events emitted from a parallel fan-out the snapshot covers the
	// completed subtree's contribution merged into the pre-fan-out totals
	// observed by this worker; the done event always carries the exact
	// run totals.
	Stats MiningStats
	// Exec carries the execution-layer counters on PhaseExec events and is
	// zero on every other phase. Unlike Stats, these counters may differ
	// between worker counts and tuning configurations.
	Exec ExecStats
}

// ProgressFunc observes ProgressEvents. Contract:
//
//   - it is called synchronously from the mining run, so it must be fast
//     (record and return); blocking stalls the miner;
//   - when Options.Workers allows parallel execution it may be invoked
//     concurrently from multiple worker goroutines and must be safe for
//     concurrent use;
//   - it must not retain the event's Stats beyond the call unless copied
//     (the value is a snapshot; copying it is cheap).
//
// A nil ProgressFunc disables observation at zero cost.
type ProgressFunc func(ev ProgressEvent)

// Emit invokes the hook when non-nil — the one-liner miners call at their
// checkpoints.
func (f ProgressFunc) Emit(algorithm string, phase ProgressPhase, level int, stats MiningStats) {
	if f != nil {
		f(ProgressEvent{Algorithm: algorithm, Phase: phase, Level: level, Stats: stats})
	}
}
