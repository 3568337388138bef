package server

import (
	"context"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"umine/internal/algo"
	"umine/internal/core"
	"umine/internal/core/coretest"
	"umine/internal/partition"
)

func shardTestDB() *core.Database {
	return coretest.RandomDB(rand.New(rand.NewSource(9)), 600, 10, 0.6)
}

// TestShardedMineBitIdentical: the scatter-gather path returns exactly what
// the unsharded path returns for the same query — the property that lets
// cache entries, monotonic filtering and coalescing ignore sharding.
func TestShardedMineBitIdentical(t *testing.T) {
	db := shardTestDB()
	s := New(Config{DefaultWorkers: 2})
	if _, err := s.RegisterDatabase("flat", db, RegisterOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RegisterDatabase("sharded", db, RegisterOptions{Shards: 4}); err != nil {
		t.Fatal(err)
	}
	for _, alg := range []string{"UApriori", "UH-Mine", "DPB", "NDUApriori"} {
		th := core.Thresholds{MinESup: 0.05}
		if alg == "DPB" || alg == "NDUApriori" {
			th = core.Thresholds{MinSup: 0.1, PFT: 0.7}
		}
		flat, err := s.Mine(context.Background(), MineRequest{Dataset: "flat", Algorithm: alg, Thresholds: th})
		if err != nil {
			t.Fatalf("%s flat: %v", alg, err)
		}
		sharded, err := s.Mine(context.Background(), MineRequest{Dataset: "sharded", Algorithm: alg, Thresholds: th})
		if err != nil {
			t.Fatalf("%s sharded: %v", alg, err)
		}
		if sharded.Cache != CacheMiss {
			t.Fatalf("%s sharded: cache=%s, want miss", alg, sharded.Cache)
		}
		a, b := flat.Results, sharded.Results
		if a.Len() != b.Len() {
			t.Fatalf("%s: sharded found %d itemsets, flat %d", alg, b.Len(), a.Len())
		}
		for i := range a.Results {
			x, y := a.Results[i], b.Results[i]
			if !x.Itemset.Equal(y.Itemset) || !bitsEq(x.ESup, y.ESup) || !bitsEq(x.Var, y.Var) || !bitsEq(x.FreqProb, y.FreqProb) {
				t.Fatalf("%s result %d differs: %+v vs %+v", alg, i, y, x)
			}
		}
	}
	st := s.Stats()
	if st.ShardedMines != 4 {
		t.Fatalf("ShardedMines = %d, want 4", st.ShardedMines)
	}
	if st.PartitionsMined != 16 {
		t.Fatalf("PartitionsMined = %d, want 16", st.PartitionsMined)
	}
	if st.Phase2Candidates == 0 {
		t.Fatal("Phase2Candidates = 0, want > 0")
	}
}

// TestShardedMineCached: a repeat of a sharded query is a cache hit (no
// second scatter), and a higher-threshold query is answered by the
// monotonic filter.
func TestShardedMineCached(t *testing.T) {
	s := New(Config{})
	if _, err := s.RegisterDatabase("d", shardTestDB(), RegisterOptions{Shards: 3}); err != nil {
		t.Fatal(err)
	}
	req := MineRequest{Dataset: "d", Algorithm: "UApriori", Thresholds: core.Thresholds{MinESup: 0.05}}
	if resp, err := s.Mine(context.Background(), req); err != nil || resp.Cache != CacheMiss {
		t.Fatalf("first mine: %v / %v", resp, err)
	}
	if resp, err := s.Mine(context.Background(), req); err != nil || resp.Cache != CacheHit {
		t.Fatalf("repeat mine: %v / %v", resp, err)
	}
	req.Thresholds = core.Thresholds{MinESup: 0.2}
	if resp, err := s.Mine(context.Background(), req); err != nil || resp.Cache != CacheFiltered {
		t.Fatalf("filtered mine: %v / %v", resp, err)
	}
	if st := s.Stats(); st.ShardedMines != 1 {
		t.Fatalf("ShardedMines = %d, want 1 (cache served the rest)", st.ShardedMines)
	}
}

// TestShardedFallback: a non-partitionable algorithm on a sharded dataset
// mines unsharded (and still correctly).
func TestShardedFallback(t *testing.T) {
	s := New(Config{})
	if _, err := s.RegisterDatabase("d", shardTestDB(), RegisterOptions{Shards: 4}); err != nil {
		t.Fatal(err)
	}
	resp, err := s.Mine(context.Background(), MineRequest{
		Dataset: "d", Algorithm: "MCSampling",
		Thresholds: core.Thresholds{MinSup: 0.2, PFT: 0.7},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Results == nil {
		t.Fatal("no results")
	}
	if st := s.Stats(); st.ShardedMines != 0 {
		t.Fatalf("ShardedMines = %d, want 0 (fallback path)", st.ShardedMines)
	}
}

// sliceBackend mines each fixed-boundary slice of one snapshot in the test
// process — the work the remote shard pool does over the wire.
type sliceBackend struct {
	db     *core.Database
	bounds []partition.Range
}

func (b sliceBackend) Shards() int { return len(b.bounds) }
func (b sliceBackend) MineShard(ctx context.Context, shard int, alg string, th core.Thresholds, workers int) ([]core.Itemset, core.MiningStats, error) {
	r := b.bounds[shard]
	return algo.MineSlice(ctx, alg, b.db.Slice(r.Lo, r.Hi), th, core.Options{Workers: workers})
}

// countingBackend wraps a shard backend, counting scatter calls — the seam
// a process-per-shard deployment implements remotely.
type countingBackend struct {
	inner ShardBackend
	calls atomic.Int64
}

func (c *countingBackend) Shards() int { return c.inner.Shards() }
func (c *countingBackend) MineShard(ctx context.Context, shard int, alg string, th core.Thresholds, workers int) ([]core.Itemset, core.MiningStats, error) {
	c.calls.Add(1)
	return c.inner.MineShard(ctx, shard, alg, th, workers)
}

func TestShardBackendSubstitution(t *testing.T) {
	s := New(Config{})
	var backend *countingBackend
	s.newShardBackend = func(_ string, _ uint64, db *core.Database, k int) ShardBackend {
		backend = &countingBackend{inner: sliceBackend{db: db, bounds: partition.Boundaries(db.N(), k)}}
		return backend
	}
	if _, err := s.RegisterDatabase("d", shardTestDB(), RegisterOptions{Shards: 5}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Mine(context.Background(), MineRequest{
		Dataset: "d", Algorithm: "UApriori", Thresholds: core.Thresholds{MinESup: 0.05},
	}); err != nil {
		t.Fatal(err)
	}
	if backend == nil || backend.calls.Load() != 5 {
		t.Fatalf("scatter fanned out %v shard mines, want 5", backend.calls.Load())
	}
}

func TestRegisterShardsValidation(t *testing.T) {
	s := New(Config{})
	if _, err := s.RegisterDatabase("bad", shardTestDB(), RegisterOptions{Shards: -1}); err == nil {
		t.Fatal("negative shard count accepted")
	}
	// Shards is client-reachable over HTTP: unbounded values (O(Shards)
	// allocations per mine) must be rejected at registration.
	if _, err := s.RegisterDatabase("huge", shardTestDB(), RegisterOptions{Shards: maxDatasetShards + 1}); err == nil {
		t.Fatal("oversized shard count accepted")
	}
	info, err := s.RegisterDatabase("ok", shardTestDB(), RegisterOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if info.Shards != 2 {
		t.Fatalf("DatasetInfo.Shards = %d, want 2", info.Shards)
	}
}

// TestShardedMineClampsToSnapshot: the effective scatter width is clamped
// so every shard holds at least minShardTransactions of the current
// snapshot — tiny partitions would degenerate the partition-relative
// phase-1 thresholds into powerset enumeration (the smaller the partition,
// the lower its absolute candidate floor), which a client could otherwise
// trigger through the shards knob.
func TestShardedMineClampsToSnapshot(t *testing.T) {
	s := New(Config{})
	// A 3-transaction snapshot cannot hold even one minimum-size shard:
	// the mine must fall back to the unsharded path entirely.
	tiny := coretest.RandomDB(rand.New(rand.NewSource(5)), 3, 6, 0.9)
	if _, err := s.RegisterDatabase("tiny", tiny, RegisterOptions{Shards: 64}); err != nil {
		t.Fatal(err)
	}
	resp, err := s.Mine(context.Background(), MineRequest{
		Dataset: "tiny", Algorithm: "UApriori", Thresholds: core.Thresholds{MinESup: 0.3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Results == nil {
		t.Fatal("no results")
	}
	if st := s.Stats(); st.ShardedMines != 0 || st.PartitionsMined != 0 {
		t.Fatalf("tiny snapshot scattered anyway: %+v", st)
	}

	// A 600-transaction snapshot supports at most 600/minShardTransactions
	// shards, however many the registration asked for.
	if _, err := s.RegisterDatabase("mid", shardTestDB(), RegisterOptions{Shards: 300}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Mine(context.Background(), MineRequest{
		Dataset: "mid", Algorithm: "UApriori", Thresholds: core.Thresholds{MinESup: 0.05},
	}); err != nil {
		t.Fatal(err)
	}
	maxK := uint64(600 / minShardTransactions)
	if st := s.Stats(); st.ShardedMines != 1 || st.PartitionsMined == 0 || st.PartitionsMined > maxK {
		t.Fatalf("PartitionsMined = %d, want in [1, %d] (clamped shard width)", st.PartitionsMined, maxK)
	}
}

func bitsEq(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Float64bits(a) == math.Float64bits(b)
}
