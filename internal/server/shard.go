package server

import (
	"context"
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
// (algo.NewPartitionEngine). With Config.ShardPool set, each shard's phase
// 1 is instead an RPC to the process holding just that slice (the shardrpc
// pool's Backend); the engine only needs "mine shard i at these thresholds
// and return its frequent itemsets", which either answers.

// mineSharded runs one scatter-gather mine over the snapshot: the partition
// engine drives phase 1 — its own in-process slice mine, or the shard pool
// when one is configured — and phase 2 through the restricted target miner,
// and its RunStats feed the /stats partition counters. Results are
// bit-identical to s.mineFn on the same snapshot. version is the snapshot's
// registry version, pinned onto every remote shard request.
func (s *Server) mineSharded(ctx context.Context, algorithm, name string, db *core.Database, version uint64, k int, th core.Thresholds, opts core.Options, exec *execRecord) (*core.ResultSet, error) {
	opts.Partitions = k
	eng, err := algo.NewPartitionEngine(algorithm, opts)
	if err != nil {
		return nil, err
	}
	mine, label := eng.MineShard, "sharded"
	if p := s.cfg.ShardPool; p != nil {
		// The Backend is built per mine: it holds only the shard bounds;
		// the shard servers hold the slices.
		be, err := p.Backend(name, version, db, k, s.shardHooks(), s.cfg.ShardProgress)
		if err != nil {
			// A width the pool cannot serve (runMine clamps, so only a
			// racing reconfiguration lands here) degrades to the in-process
			// mine — the same graceful degradation a dead shard gets.
			s.shardFailovers.Add(1)
		} else {
			phase1, _ := algo.PartitionPhase1(algorithm)
			label = "shardrpc"
			mine = func(ctx context.Context, shard int, _ *core.Database, th1 core.Thresholds, workers int) ([]core.Itemset, core.MiningStats, error) {
				return be.MineShard(ctx, shard, phase1, th1, workers)
			}
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
