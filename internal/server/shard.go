package server

import (
	"context"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"umine/internal/algo"
	"umine/internal/core"
	"umine/internal/incmine"
	"umine/internal/partition"
	"umine/internal/shardrpc"
	"umine/internal/telemetry"
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
// and return its frequent itemsets", which either answers. In front of
// both sits the dataset's held phase-1 answers (heldPhase1): a shard whose
// range and query are unchanged since an earlier read — every shard but
// the last after an append — is answered from the coordinator and not
// contacted at all.

// mineSharded runs one scatter-gather mine over the snapshot: the partition
// engine drives phase 1 — its own in-process slice mine, or the shard pool
// when one is configured — and phase 2 through the restricted target miner,
// and its RunStats feed the /stats partition counters. Results are
// bit-identical to s.mineFn on the same snapshot. The snapshot's version is
// pinned onto every remote shard request.
func (s *Server) mineSharded(ctx context.Context, algorithm string, d *dsEntry, snap incmine.Snapshot, k int, th core.Thresholds, opts core.Options, exec *execRecord) (*core.ResultSet, error) {
	db := snap.DB
	opts.Partitions = k
	eng, err := algo.NewPartitionEngine(algorithm, opts)
	if err != nil {
		return nil, err
	}
	mine, label := eng.MineShard, "sharded"
	if p := s.cfg.ShardPool; p != nil {
		// The Backend is built per mine: it holds only the shard bounds;
		// the shard servers hold the slices.
		be, err := p.Backend(d.name, snap.Version, db, k, s.shardHooks(), s.cfg.ShardProgress)
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
	// The shards' ranges in stream positions, the held answers' keys.
	live := make([]streamRange, k)
	for i, r := range partition.Boundaries(db.N(), k) {
		live[i] = streamRange{snap.Evictions + int64(r.Lo), snap.Evictions + int64(r.Hi)}
	}
	var reused atomic.Uint64
	eng.MineShard = func(ctx context.Context, shard int, slice *core.Database, th1 core.Thresholds, workers int) ([]core.Itemset, core.MiningStats, error) {
		if sets, ok := d.held.lookup(algorithm, th, live[shard], th1.MinESup); ok {
			// No phase-1 work was done, so none is reported; the span and
			// partitions_reused record the reuse.
			reused.Add(1)
			telemetry.SpanFromContext(ctx).SetAttr("reused", "true")
			return sets, core.MiningStats{}, nil
		}
		t0 := time.Now()
		sets, stats, err := mine(ctx, shard, slice, th1, workers)
		s.histShard.Observe(time.Since(t0).Seconds())
		if err == nil {
			d.held.store(algorithm, th, live, shard, heldAnswer{ratio: th1.MinESup, sets: sets})
		}
		return sets, stats, err
	}
	eng.Observe = func(st partition.RunStats) {
		// One critical section per completed mine, paired with the one in
		// Stats — the snapshot-consistency invariant.
		s.partMu.Lock()
		s.part.shardedMines++
		s.part.partitions += uint64(st.Partitions)
		s.part.reused += reused.Load()
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

// heldPhase1 holds one dataset's per-shard phase-1 answers across snapshot
// versions, for one query (algorithm and request thresholds): the last one
// that mined a shard. A shard's range is keyed in stream positions (the
// window's eviction count plus the snapshot position): the stream only
// grows at its tail and loses its head, so one stream range always holds
// the same transactions, and a windowed trim moves every range off its
// held key.
//
// A held answer serves a later phase 1 whose ratio is no lower than the one
// it was mined at: expected-support answers are anti-monotone in the
// ratio, so the held set is a superset of a fresh mine's — all SON asks of
// a partition — and phase 2's restricted verification keeps the answer
// bit-identical. Keying by the request thresholds, not the phase-1 ratio
// alone, keeps the held ratio within the ⌈min_sup·N⌉ jitter of the current
// one, so one low-threshold query's large answer never inflates another
// query's phase 2.
type heldPhase1 struct {
	mu        sync.Mutex
	algorithm string
	th        core.Thresholds
	answers   map[streamRange]heldAnswer
}

// streamRange is a shard's [lo, hi) in stream positions.
type streamRange struct{ lo, hi int64 }

// heldAnswer is one shard's phase-1 answer and the ratio it was mined at.
type heldAnswer struct {
	ratio float64
	sets  []core.Itemset
}

// lookup returns the itemsets held for range r of the query if they were
// mined at a ratio no higher than ratio.
func (h *heldPhase1) lookup(algorithm string, th core.Thresholds, r streamRange, ratio float64) ([]core.Itemset, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if a, ok := h.answers[r]; ok && h.algorithm == algorithm && h.th == th && a.ratio <= ratio {
		return a.sets, true
	}
	return nil, false
}

// store holds a freshly mined answer for live[shard] unless one mined at a
// lower ratio is held (the lowest serves the most later reads). A different
// query replaces every held answer; otherwise the answers for ranges that
// are no longer among live, the mined snapshot's shard ranges, are dropped.
func (h *heldPhase1) store(algorithm string, th core.Thresholds, live []streamRange, shard int, a heldAnswer) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.answers == nil || h.algorithm != algorithm || h.th != th {
		h.algorithm, h.th, h.answers = algorithm, th, map[streamRange]heldAnswer{}
	}
	maps.DeleteFunc(h.answers, func(r streamRange, _ heldAnswer) bool { return !slices.Contains(live, r) })
	if old, ok := h.answers[live[shard]]; !ok || a.ratio < old.ratio {
		h.answers[live[shard]] = a
	}
}
