package server

import (
	"context"
	"fmt"
	"time"

	"umine/internal/algo"
	"umine/internal/core"
	"umine/internal/partition"
	"umine/internal/shardrpc"
)

// Scatter-gather sharding: a dataset registered with Shards = K is mined in
// the SON two-phase shape — /mine fans phase 1 out across the K sub-shards,
// gathers the candidate union, and runs the restricted full-database
// verification — with the result bit-identical to an unsharded mine, so the
// cache, the monotonic filter and singleflight coalescing apply unchanged
// (a sharded and an unsharded mine of the same query are interchangeable
// cache entries).
//
// In process, phase 1 is the partition engine's own slice mine
// (algo.NewPartitionEngine). ShardBackend is the seam for moving it out of
// process: the engine only needs "mine shard i at these thresholds and
// return its frequent itemsets", which an RPC to a process holding just
// that slice (the shardrpc pool) answers as well.

// ShardBackend mines one shard of a dataset during phase 1 of a
// scatter-gather mine, in place of the partition engine's in-process slice
// mine. The remote shard pool and tests implement it. Implementations must
// be safe for concurrent MineShard calls (phase 1 fans out on the worker
// pool).
type ShardBackend interface {
	// Shards returns the shard count K.
	Shards() int
	// MineShard mines shard i with the named algorithm at the phase-1
	// thresholds and returns its locally frequent itemsets plus work
	// counters.
	MineShard(ctx context.Context, shard int, algorithm string, th core.Thresholds, workers int) ([]core.Itemset, core.MiningStats, error)
}

// mineSharded runs one scatter-gather mine over the snapshot: the partition
// engine drives phase 1 — its own in-process slice mine, or the shard
// backend when one is configured — and phase 2 through the restricted
// target miner, and its RunStats feed the /stats partition counters.
// Results are bit-identical to s.mineFn on the same snapshot. version is
// the snapshot's registry version, pinned onto every remote shard request.
func (s *Server) mineSharded(ctx context.Context, algorithm, name string, db *core.Database, version uint64, k int, th core.Thresholds, opts core.Options, exec *execRecord) (*core.ResultSet, error) {
	opts.Partitions = k
	eng, err := algo.NewPartitionEngine(algorithm, opts)
	if err != nil {
		return nil, err
	}
	mine, label := eng.MineShard, "sharded"
	if backend := s.shardBackend(name, version, db, k); backend != nil {
		if got := backend.Shards(); got != k {
			// The engine fans out over Boundaries(N, k); a backend with a
			// different shard count (a misconfigured process-per-shard
			// deployment) must fail up front, not mid-scatter.
			return nil, fmt.Errorf("server: shard backend holds %d shards, dataset scatters %d", got, k)
		}
		if _, ok := backend.(*shardrpc.Backend); ok {
			label = "shardrpc"
		}
		phase1, _ := algo.PartitionPhase1(algorithm)
		mine = func(ctx context.Context, shard int, _ *core.Database, th1 core.Thresholds, workers int) ([]core.Itemset, core.MiningStats, error) {
			return backend.MineShard(ctx, shard, phase1, th1, workers)
		}
	}
	if exec != nil {
		exec.shards = k
		exec.backend = label
	}
	eng.MineShard = func(ctx context.Context, shard int, slice *core.Database, th1 core.Thresholds, workers int) ([]core.Itemset, core.MiningStats, error) {
		t0 := time.Now()
		sets, stats, err := mine(ctx, shard, slice, th1, workers)
		s.histShard.Observe(time.Since(t0).Seconds())
		return sets, stats, err
	}
	eng.Observe = func(st partition.RunStats) {
		// One critical section per completed mine, paired with the one in
		// Stats — the snapshot-consistency invariant.
		s.partMu.Lock()
		s.part.shardedMines++
		s.part.partitions += uint64(st.Partitions)
		s.part.candidates += uint64(st.Candidates)
		s.part.mergeNanos += uint64(st.MergeElapsed.Nanoseconds())
		s.part.stragNanos += uint64(st.SlowestShard.Nanoseconds())
		s.partMu.Unlock()
		s.histMerge.Observe(st.MergeElapsed.Seconds())
		s.histPhase2.Observe(st.Phase2Elapsed.Seconds())
	}
	return eng.Mine(ctx, db, th)
}

// shardBackend returns the backend that replaces the engine's in-process
// slice mine for one sharded mine: the test substitution hook first, then a
// Backend view of the configured remote pool, built per mine (it holds only
// the shard bounds; the shard servers hold the slices). nil — no hook, no
// pool, or a width the pool cannot serve — keeps the in-process mine.
func (s *Server) shardBackend(name string, version uint64, db *core.Database, k int) ShardBackend {
	if s.newShardBackend != nil {
		return s.newShardBackend(name, version, db, k)
	}
	p := s.cfg.ShardPool
	if p == nil {
		return nil
	}
	be, err := p.Backend(name, version, db, k, s.shardHooks(), s.cfg.ShardProgress)
	if err != nil {
		// A width the pool cannot serve (runMine clamps, so only a racing
		// reconfiguration lands here) degrades to the in-process mine —
		// the same graceful degradation a dead shard gets.
		s.shardFailovers.Add(1)
		return nil
	}
	return be
}

// shardHooks binds the remote backend's robustness events to the /stats
// counters.
func (s *Server) shardHooks() shardrpc.Hooks {
	return shardrpc.Hooks{
		OnRetry:    func(int) { s.shardRetries.Add(1) },
		OnHedge:    func(int) { s.shardHedges.Add(1) },
		OnFailover: func(int) { s.shardFailovers.Add(1) },
		OnRepush:   func(int) { s.shardRepushes.Add(1) },
	}
}
