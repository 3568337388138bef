package server

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"umine/internal/core"
	"umine/internal/core/coretest"
	"umine/internal/partition"
	"umine/internal/shardrpc"
	"umine/internal/telemetry"
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

// TestScatterWidthKeepsMinimum: at the clamp edge (N from 64·k up past
// 64·k + g, where Boundaries first rounds interior boundaries down to a
// grid), every non-empty range of the clamped scatter still holds at least
// minShardTransactions transactions.
func TestScatterWidthKeepsMinimum(t *testing.T) {
	for _, k := range []int{2, 3, 7} {
		for n := minShardTransactions * k; n <= minShardTransactions*k+2*minShardTransactions; n++ {
			width := scatterWidth(n, k)
			if width != k {
				t.Fatalf("scatterWidth(%d, %d) = %d, want %d", n, k, width, k)
			}
			for i, r := range partition.Boundaries(n, width) {
				if r.Len() != 0 && r.Len() < minShardTransactions {
					t.Fatalf("N=%d k=%d: range %d %+v holds %d < %d transactions",
						n, k, i, r, r.Len(), minShardTransactions)
				}
			}
		}
		if got := scatterWidth(minShardTransactions*k-1, k); got != k-1 {
			t.Fatalf("scatterWidth(%d, %d) = %d, want %d", minShardTransactions*k-1, k, got, k-1)
		}
	}
	// Larger N, including shards of 2048 or more where the grid exceeds 64.
	for _, n := range []int{4095, 4096, 4100, 8191, 8192, 100003} {
		for k := 2; k <= 7; k++ {
			for i, r := range partition.Boundaries(n, scatterWidth(n, k)) {
				if r.Len() < minShardTransactions {
					t.Fatalf("N=%d k=%d: range %d holds %d transactions", n, k, i, r.Len())
				}
			}
		}
	}
}

// heldTxs returns n random transactions over 10 items, dense and likely
// enough that the held phase-1 tests' answers reach 4-itemsets.
func heldTxs(rng *rand.Rand, n int) [][]core.Unit {
	txs := make([][]core.Unit, n)
	for j := range txs {
		for it := 0; it < 10; it++ {
			if rng.Float64() < 0.9 {
				txs[j] = append(txs[j], core.Unit{Item: core.Item(it), Prob: 0.5 + 0.5*rng.Float64()})
			}
		}
	}
	return txs
}

// heldTestDB returns an n-transaction dataset for the held phase-1 tests.
// At K = 2 its boundary Lo₁ stays at 512 for every n from 1024 to 1087,
// so the appends below leave shard 0's range [0, 512) in place.
func heldTestDB(n int) *core.Database {
	return core.MustNewDatabase("held", heldTxs(rand.New(rand.NewSource(31)), n))
}

// heldBatch returns the i-th appended batch of two transactions.
func heldBatch(i int) [][]core.Unit { return heldTxs(rand.New(rand.NewSource(int64(1000+i))), 2) }

// heldTH is DPNB's query in the held phase-1 tests. Its phase-1 ratio
// pft·⌈min_sup·N⌉/N is lowest where min_sup·N is whole (N = 1032), so an
// answer held from there serves every later N.
var heldTH = core.Thresholds{MinSup: 0.25, PFT: 0.7}

// heldMine mines req on s, requires the answer to equal a direct mine of
// the dataset's current snapshot, and returns it.
func heldMine(t *testing.T, s *Server, req MineRequest) *core.ResultSet {
	t.Helper()
	resp, err := s.Mine(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := s.reg.get(req.Dataset)
	requireSameResults(t, req.Algorithm, resp.Results, directMine(t, req.Algorithm, d.ledgerSnapshot().DB, req.Thresholds))
	return resp.Results
}

// TestShardHeldPhase1Appends: over 20 appends of 2 transactions each,
// every sharded read equals a direct mine of its snapshot, and after the
// first read shard 0, whose range the appends leave in place, is answered
// from its held phase-1 answer: its span says reused, and only shard 1's
// phase-1 time is observed.
func TestShardHeldPhase1Appends(t *testing.T) { testHeldAppends(t, nil, nil) }

// testHeldAppends runs TestShardHeldPhase1Appends in process (pool nil) or
// over pool, whose shard servers are shards.
func testHeldAppends(t *testing.T, pool *shardrpc.Pool, shards []*shardrpc.ShardServer) {
	hub := telemetry.NewHub(telemetry.HubConfig{TraceCapacity: 2})
	s := New(Config{DefaultWorkers: 2, Telemetry: hub, ShardPool: pool})
	if _, err := s.RegisterDatabase("d", heldTestDB(1032), RegisterOptions{Shards: 2}); err != nil {
		t.Fatal(err)
	}
	req := MineRequest{Dataset: "d", Algorithm: "DPNB", Thresholds: heldTH}
	for i := 0; i <= 20; i++ {
		if i > 0 {
			if _, err := s.Ingest(context.Background(), "d", heldBatch(i)); err != nil {
				t.Fatal(err)
			}
		}
		observed := s.histShard.Count()
		heldMine(t, s, req)
		st := s.Stats()
		if st.PartitionsMined != uint64(2*(i+1)) || st.PartitionsReused != uint64(i) {
			t.Fatalf("read %d: partitions mined/reused = %d/%d, want %d/%d", i, st.PartitionsMined, st.PartitionsReused, 2*(i+1), i)
		}
		want := uint64(2)
		if i > 0 {
			want = 1 // shard 0 reused: no phase-1 time to observe
		}
		if got := s.histShard.Count() - observed; got != want {
			t.Fatalf("read %d: %d shard phase-1 times observed, want %d", i, got, want)
		}
		root := hub.Traces()[0].Root
		for shard, want := range []bool{i > 0, false} {
			sp, ok := root.Find(fmt.Sprintf("shard %d", shard))
			if !ok {
				t.Fatalf("read %d: no shard %d span", i, shard)
			}
			if got := sp.Attrs["reused"] == "true"; got != want {
				t.Fatalf("read %d: shard %d span reused=%v, want %v (attrs %v)", i, shard, got, want, sp.Attrs)
			}
		}
		if shards != nil {
			m0, m1 := shards[0].Stats().Mines, shards[1].Stats().Mines
			if m0 != 1 || m1 != uint64(i+1) {
				t.Fatalf("read %d: shard mines %d/%d, want 1/%d", i, m0, m1, i+1)
			}
		}
	}
}

// TestShardHeldPhase1WindowTrim: a windowed trim between two reads shifts
// both shards' stream ranges, so neither held answer is reused: both
// shards mine again and the answer stays identical to a direct mine.
func TestShardHeldPhase1WindowTrim(t *testing.T) { testHeldWindowTrim(t, nil, nil) }

func testHeldWindowTrim(t *testing.T, pool *shardrpc.Pool, shards []*shardrpc.ShardServer) {
	s := New(Config{DefaultWorkers: 2, ShardPool: pool})
	if _, err := s.RegisterDatabase("w", heldTestDB(1032), RegisterOptions{Shards: 2, Window: &WindowOptions{Size: 1032}}); err != nil {
		t.Fatal(err)
	}
	req := MineRequest{Dataset: "w", Algorithm: "DPNB", Thresholds: heldTH}
	heldMine(t, s, req)
	res, err := s.Ingest(context.Background(), "w", heldBatch(1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Evicted || res.N != 1032 {
		t.Fatalf("ingest: %+v, want a trim back to 1032", res)
	}
	heldMine(t, s, req)
	if st := s.Stats(); st.PartitionsMined != 4 || st.PartitionsReused != 0 {
		t.Fatalf("partitions mined/reused = %d/%d, want 4/0", st.PartitionsMined, st.PartitionsReused)
	}
	for i, sh := range shards {
		if m := sh.Stats().Mines; m != 2 {
			t.Fatalf("shard %d served %d mines, want 2", i, m)
		}
	}
}

// TestShardHeldPhase1LowerRatio: a held answer serves only a phase 1 whose
// ratio is no lower than the one it was mined at. With DPNB at min_sup
// 0.25, the ratio is higher at N = 1030 than at 1032, so the read after
// the first append mines shard 0 again although its range [0, 512) did not
// move; the read after the second reuses that lower-ratio answer. A query
// at other thresholds, lower or higher, never reuses another's answer.
func TestShardHeldPhase1LowerRatio(t *testing.T) {
	s := New(Config{DefaultWorkers: 2})
	if _, err := s.RegisterDatabase("d", heldTestDB(1030), RegisterOptions{Shards: 2}); err != nil {
		t.Fatal(err)
	}
	req := MineRequest{Dataset: "d", Algorithm: "DPNB", Thresholds: heldTH, NoCache: true}
	reused := func(step string, want uint64) {
		t.Helper()
		if got := s.Stats().PartitionsReused; got != want {
			t.Fatalf("%s: partitions reused = %d, want %d", step, got, want)
		}
	}
	heldMine(t, s, req)
	for i, want := range []uint64{0, 1} {
		if _, err := s.Ingest(context.Background(), "d", heldBatch(i)); err != nil {
			t.Fatal(err)
		}
		heldMine(t, s, req)
		reused(fmt.Sprintf("append %d", i+1), want)
	}
	for _, minSup := range []float64{0.2, 0.3} {
		other := req
		other.Thresholds.MinSup = minSup
		heldMine(t, s, other)
		reused(fmt.Sprintf("min_sup %g", minSup), 1)
	}
}

// TestShardHeldPhase1Bounded: across a 100-threshold sweep, each query
// mined twice with an append between the two every 30th step, a dataset
// holds only the last query's answers, one per live shard range: a repeat
// of that query reuses both shards (only shard 0 across an append) and
// reports no phase-1 work for them, and a query it replaced is mined
// again.
func TestShardHeldPhase1Bounded(t *testing.T) {
	s := New(Config{})
	if _, err := s.RegisterDatabase("d", shardTestDB(), RegisterOptions{Shards: 2}); err != nil {
		t.Fatal(err)
	}
	req := func(i int) MineRequest {
		return MineRequest{Dataset: "d", Algorithm: "UApriori", Thresholds: core.Thresholds{MinESup: 0.05 + 0.001*float64(i)}, NoCache: true}
	}
	d, _ := s.reg.get("d")
	var reused uint64
	for i := 0; i < 100; i++ {
		first := heldMine(t, s, req(i))
		if i%30 == 29 {
			// The append moves only shard 1's range (Lo₁ stays at 288
			// up to N = 607): shard 0 is reused and shard 1's old range
			// is dropped.
			if _, err := s.Ingest(context.Background(), "d", heldBatch(i)); err != nil {
				t.Fatal(err)
			}
			heldMine(t, s, req(i))
			reused++
		} else {
			// Same snapshot, both shards reused: only phase 2's scans.
			if again := heldMine(t, s, req(i)); again.Stats.DBScans >= first.Stats.DBScans {
				t.Fatalf("step %d: reused read reports %d scans, the mined one %d", i, again.Stats.DBScans, first.Stats.DBScans)
			}
			reused += 2
		}
		if got := s.Stats().PartitionsReused; got != reused {
			t.Fatalf("step %d: partitions reused = %d, want %d", i, got, reused)
		}
		d.held.mu.Lock()
		th, n := d.held.th, len(d.held.answers)
		d.held.mu.Unlock()
		if th != req(i).Thresholds || n != 2 {
			t.Fatalf("step %d: holds %d answers for %+v, want 2 for %+v", i, n, th, req(i).Thresholds)
		}
	}
	heldMine(t, s, req(0))
	if got := s.Stats().PartitionsReused; got != reused {
		t.Fatalf("replaced query: partitions reused = %d, want %d", got, reused)
	}
}

// TestShardHeldPhase1Concurrent: mines at several thresholds race a stream
// of appends; under -race every answer equals a direct mine of the
// snapshot version it reports.
func TestShardHeldPhase1Concurrent(t *testing.T) { testHeldConcurrent(t, nil) }

func testHeldConcurrent(t *testing.T, pool *shardrpc.Pool) {
	s := New(Config{DefaultWorkers: 2, ShardPool: pool})
	if _, err := s.RegisterDatabase("d", heldTestDB(1032), RegisterOptions{Shards: 2}); err != nil {
		t.Fatal(err)
	}
	d, _ := s.reg.get("d")
	var snaps sync.Map // version → *core.Database
	snaps.Store(uint64(0), d.ledgerSnapshot().DB)
	type read struct {
		req  MineRequest
		resp *MineResponse
	}
	reads := make([][]read, 3)
	var wg sync.WaitGroup
	wg.Add(1 + len(reads))
	go func() {
		defer wg.Done()
		for i := 1; i <= 8; i++ {
			// The only writer: the snapshot after its ingest is that version.
			if _, err := s.Ingest(context.Background(), "d", heldBatch(i)); err != nil {
				t.Error(err)
				return
			}
			snap := d.ledgerSnapshot()
			snaps.Store(snap.Version, snap.DB)
		}
	}()
	for g := range reads {
		go func() {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				req := MineRequest{Dataset: "d", Algorithm: "UApriori", Thresholds: core.Thresholds{MinESup: 0.1 + 0.05*float64(i%2)}, NoCache: g == 0}
				if g == 2 {
					req.Algorithm, req.Thresholds = "DPNB", heldTH
				}
				resp, err := s.Mine(context.Background(), req)
				if err != nil {
					t.Error(err)
					return
				}
				reads[g] = append(reads[g], read{req, resp})
			}
		}()
	}
	wg.Wait()
	for _, rs := range reads {
		for _, r := range rs {
			db, ok := snaps.Load(r.resp.DatasetVersion)
			if !ok {
				t.Fatalf("read at unknown version %d", r.resp.DatasetVersion)
			}
			requireSameResults(t, r.req.Algorithm, r.resp.Results, directMine(t, r.req.Algorithm, db.(*core.Database), r.req.Thresholds))
		}
	}
}

func bitsEq(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Float64bits(a) == math.Float64bits(b)
}
