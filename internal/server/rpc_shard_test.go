package server

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"umine/internal/algo"
	"umine/internal/core"
	"umine/internal/shardrpc"
)

// startShardCluster boots n in-process shard servers and a pool over them.
func startShardCluster(t *testing.T, n int) *shardrpc.Pool {
	t.Helper()
	pool, _ := startShardServers(t, n)
	return pool
}

// startShardServers is startShardCluster that also returns the shard
// servers, in pool order, for their Stats.
func startShardServers(t *testing.T, n int) (*shardrpc.Pool, []*shardrpc.ShardServer) {
	t.Helper()
	addrs := make([]string, n)
	servers := make([]*shardrpc.ShardServer, n)
	for i := range addrs {
		servers[i] = shardrpc.NewShardServer(shardrpc.ShardConfig{})
		ts := httptest.NewServer(servers[i].Handler())
		t.Cleanup(ts.Close)
		addrs[i] = ts.URL
	}
	pool, err := shardrpc.NewPool(shardrpc.PoolConfig{
		Addrs: addrs,
		Tuning: shardrpc.Tuning{
			RequestTimeout:  10 * time.Second,
			RetryBackoff:    time.Millisecond,
			RetryBackoffMax: 5 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return pool, servers
}

// TestRPCShardedMineBitIdentical: a /mine scattered over real shard-server
// processes (in-process HTTP here; cmd/ushard in deployment) returns exactly
// what the unsharded path returns, for every partition-capable registered
// algorithm — the ISSUE's end-to-end contract.
func TestRPCShardedMineBitIdentical(t *testing.T) {
	db := shardTestDB()
	local := New(Config{DefaultWorkers: 2})
	remote := New(Config{DefaultWorkers: 2, ShardPool: startShardCluster(t, 2)})
	if _, err := local.RegisterDatabase("d", db, RegisterOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := remote.RegisterDatabase("d", db, RegisterOptions{Shards: 2}); err != nil {
		t.Fatal(err)
	}
	for _, alg := range algo.Names() {
		if !algo.SupportsPartitions(alg) {
			continue
		}
		sem, _ := algo.SemanticsOf(alg)
		th := core.Thresholds{MinESup: 0.05}
		if sem == core.Probabilistic {
			th = core.Thresholds{MinSup: 0.1, PFT: 0.7}
		}
		want, err := local.Mine(context.Background(), MineRequest{Dataset: "d", Algorithm: alg, Thresholds: th})
		if err != nil {
			t.Fatalf("%s local: %v", alg, err)
		}
		got, err := remote.Mine(context.Background(), MineRequest{Dataset: "d", Algorithm: alg, Thresholds: th})
		if err != nil {
			t.Fatalf("%s rpc: %v", alg, err)
		}
		requireSameResults(t, alg, got.Results, want.Results)
	}
	st := remote.Stats()
	if st.RemoteShards != 2 {
		t.Fatalf("RemoteShards = %d, want 2", st.RemoteShards)
	}
	if st.ShardFailovers != 0 || st.ShardRetries != 0 {
		t.Fatalf("healthy cluster recorded failovers/retries: %d/%d", st.ShardFailovers, st.ShardRetries)
	}
	if st.ShardRepushes == 0 {
		t.Fatal("no re-pushes recorded: shards can't have been demand-populated")
	}
	if st.ShardedMines == 0 {
		t.Fatal("no sharded mines recorded")
	}
}

// TestRPCShardedIngestInvalidation: an /ingest version bump invalidates the
// shards' pinned slices coherently — the next mine re-pushes and the result
// matches an unsharded mine of the grown dataset, bit for bit.
func TestRPCShardedIngestInvalidation(t *testing.T) {
	db := shardTestDB()
	local := New(Config{})
	remote := New(Config{ShardPool: startShardCluster(t, 2)})
	if _, err := local.RegisterDatabase("d", db, RegisterOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := remote.RegisterDatabase("d", db, RegisterOptions{Shards: 2}); err != nil {
		t.Fatal(err)
	}
	th := core.Thresholds{MinESup: 0.05}
	req := MineRequest{Dataset: "d", Algorithm: "UApriori", Thresholds: th}
	if _, err := remote.Mine(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	repushesBefore := remote.Stats().ShardRepushes

	batch := [][]core.Unit{
		{{Item: 0, Prob: 0.9}, {Item: 3, Prob: 0.4}},
		{{Item: 1, Prob: 0.7}, {Item: 2, Prob: 0.6}, {Item: 5, Prob: 0.8}},
	}
	for _, s := range []*Server{local, remote} {
		res, err := s.Ingest(context.Background(), "d", batch)
		if err != nil {
			t.Fatal(err)
		}
		if res.Version != 1 {
			t.Fatalf("post-ingest version = %d, want 1", res.Version)
		}
	}

	want, err := local.Mine(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := remote.Mine(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cache != CacheMiss || got.DatasetVersion != 1 {
		t.Fatalf("post-ingest mine: cache=%s version=%d, want miss at version 1", got.Cache, got.DatasetVersion)
	}
	requireSameResults(t, "UApriori", got.Results, want.Results)
	if after := remote.Stats().ShardRepushes; after <= repushesBefore {
		t.Fatalf("repushes %d → %d: the version bump must force re-pushes", repushesBefore, after)
	}
}

// TestRPCShardedDeadClusterFailover: with every shard unreachable, /mine
// degrades to in-process mining of each slice and still returns the
// bit-identical result — availability survives, only distribution is lost.
func TestRPCShardedDeadClusterFailover(t *testing.T) {
	db := shardTestDB()
	dead := httptest.NewServer(nil)
	addr := dead.URL
	dead.Close()
	pool, err := shardrpc.NewPool(shardrpc.PoolConfig{
		Addrs: []string{addr, addr},
		Tuning: shardrpc.Tuning{
			RequestTimeout:  time.Second,
			MaxRetries:      1,
			RetryBackoff:    time.Millisecond,
			RetryBackoffMax: 2 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	local := New(Config{})
	remote := New(Config{ShardPool: pool})
	if _, err := local.RegisterDatabase("d", db, RegisterOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := remote.RegisterDatabase("d", db, RegisterOptions{Shards: 2}); err != nil {
		t.Fatal(err)
	}
	th := core.Thresholds{MinESup: 0.05}
	req := MineRequest{Dataset: "d", Algorithm: "UApriori", Thresholds: th}
	want, err := local.Mine(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := remote.Mine(context.Background(), req)
	if err != nil {
		t.Fatalf("dead cluster did not degrade gracefully: %v", err)
	}
	requireSameResults(t, "UApriori", got.Results, want.Results)
	st := remote.Stats()
	if st.ShardFailovers != 2 {
		t.Fatalf("ShardFailovers = %d, want 2 (both shards dead)", st.ShardFailovers)
	}
	if st.ShardRetries == 0 {
		t.Fatal("ShardRetries = 0: failover must come after exhausted retries")
	}
}

// TestRPCShardWidthClamp: a dataset registered wider than the pool scatters
// at the pool's width instead of failing.
func TestRPCShardWidthClamp(t *testing.T) {
	remote := New(Config{ShardPool: startShardCluster(t, 2)})
	if _, err := remote.RegisterDatabase("d", shardTestDB(), RegisterOptions{Shards: 4}); err != nil {
		t.Fatal(err)
	}
	resp, err := remote.Mine(context.Background(), MineRequest{
		Dataset: "d", Algorithm: "UApriori", Thresholds: core.Thresholds{MinESup: 0.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Results.Len() == 0 {
		t.Fatal("clamped scatter mined nothing")
	}
	if st := remote.Stats(); st.PartitionsMined != 2 {
		t.Fatalf("PartitionsMined = %d, want 2 (clamped to the pool width)", st.PartitionsMined)
	}
}

// TestRPCShardHeldPhase1Appends is TestShardHeldPhase1Appends over a
// 2-shard pool: after the first read shard 0 is never contacted (its mine
// count stays at 1) while shard 1 mines once a read.
func TestRPCShardHeldPhase1Appends(t *testing.T) {
	pool, shards := startShardServers(t, 2)
	testHeldAppends(t, pool, shards)
}

// TestRPCShardHeldPhase1WindowTrim is TestShardHeldPhase1WindowTrim over a
// 2-shard pool: both shard servers mine both reads.
func TestRPCShardHeldPhase1WindowTrim(t *testing.T) {
	pool, shards := startShardServers(t, 2)
	testHeldWindowTrim(t, pool, shards)
}

// TestRPCShardHeldPhase1Concurrent is TestShardHeldPhase1Concurrent over a
// 2-shard pool.
func TestRPCShardHeldPhase1Concurrent(t *testing.T) {
	testHeldConcurrent(t, startShardCluster(t, 2))
}

// requireSameResults asserts bit-exact equality of two result sets.
func requireSameResults(t *testing.T, alg string, got, want *core.ResultSet) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: got %d itemsets, want %d", alg, got.Len(), want.Len())
	}
	for i := range want.Results {
		x, y := want.Results[i], got.Results[i]
		if !x.Itemset.Equal(y.Itemset) || !bitsEq(x.ESup, y.ESup) || !bitsEq(x.Var, y.Var) || !bitsEq(x.FreqProb, y.FreqProb) {
			t.Fatalf("%s result %d differs: %+v vs %+v", alg, i, y, x)
		}
	}
}
