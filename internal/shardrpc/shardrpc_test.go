package shardrpc

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"umine/internal/algo"
	"umine/internal/core"
	"umine/internal/core/coretest"
	"umine/internal/partition"
)

func testDB(seed int64, n int) *core.Database {
	return coretest.RandomDB(rand.New(rand.NewSource(seed)), n, 10, 0.6)
}

// fastTuning keeps fault-injection tests quick: tiny timeouts and backoffs,
// hedging off unless a test opts in.
func fastTuning() Tuning {
	return Tuning{
		RequestTimeout:  5 * time.Second,
		MaxRetries:      2,
		RetryBackoff:    time.Millisecond,
		RetryBackoffMax: 5 * time.Millisecond,
	}
}

// startShards boots n in-process shard servers and returns their addresses
// plus the servers for counter inspection.
func startShards(t *testing.T, n int) ([]string, []*ShardServer) {
	t.Helper()
	addrs := make([]string, n)
	servers := make([]*ShardServer, n)
	for i := range addrs {
		ss := NewShardServer(ShardConfig{})
		ts := httptest.NewServer(ss.Handler())
		t.Cleanup(ts.Close)
		addrs[i] = ts.URL
		servers[i] = ss
	}
	return addrs, servers
}

// counters wires Hooks to atomics for assertions.
type counters struct {
	retries, hedges, failovers, repushes atomic.Int64
}

func (c *counters) hooks() Hooks {
	return Hooks{
		OnRetry:    func(int) { c.retries.Add(1) },
		OnHedge:    func(int) { c.hedges.Add(1) },
		OnFailover: func(int) { c.failovers.Add(1) },
		OnRepush:   func(int) { c.repushes.Add(1) },
	}
}

// localShardMine is the reference: the same phase-1 mine the coordinator
// would run in process over its own slice.
func localShardMine(t *testing.T, db *core.Database, lo, hi int, alg string, th core.Thresholds) ([]core.Itemset, core.MiningStats) {
	t.Helper()
	m, err := algo.NewWith(alg, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := m.Mine(context.Background(), db.Slice(lo, hi), th)
	if err != nil {
		t.Fatal(err)
	}
	return rs.Itemsets(), rs.Stats
}

func bitsEq(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// requireSameSets asserts bit-exact equality of two canonical itemset lists.
func requireSameSets(t *testing.T, got, want []core.Itemset) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d itemsets, want %d", len(got), len(want))
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("itemset %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

// TestMineShardRoundTrip: an empty shard is demand-populated by the first
// mine (stale → re-push → answer) and the result is bit-identical to the
// in-process mine of the same slice; a second call at the same pin mines
// again and answers the same itemsets.
func TestMineShardRoundTrip(t *testing.T) {
	db := testDB(1, 300)
	addrs, servers := startShards(t, 2)
	pool, err := NewPool(PoolConfig{Addrs: addrs, Tuning: fastTuning()})
	if err != nil {
		t.Fatal(err)
	}
	var c counters
	be, err := pool.Backend("d", 1, db, 2, c.hooks(), nil)
	if err != nil {
		t.Fatal(err)
	}
	th := core.Thresholds{MinESup: 0.1}
	bounds := partition.Boundaries(db.N(), 2)
	var shard0 []core.Itemset
	for shard, r := range bounds {
		sets, stats, err := be.MineShard(context.Background(), shard, "UApriori", th, 1)
		if err != nil {
			t.Fatalf("shard %d: %v", shard, err)
		}
		if shard == 0 {
			shard0 = sets
		}
		wantSets, wantStats := localShardMine(t, db, r.Lo, r.Hi, "UApriori", th)
		requireSameSets(t, sets, wantSets)
		if stats != wantStats {
			t.Fatalf("shard %d stats: got %+v, want %+v", shard, stats, wantStats)
		}
	}
	if got := c.repushes.Load(); got != 2 {
		t.Fatalf("repushes = %d, want 2 (one demand-population per empty shard)", got)
	}
	if c.retries.Load() != 0 || c.failovers.Load() != 0 {
		t.Fatalf("unexpected retries/failovers: %d/%d", c.retries.Load(), c.failovers.Load())
	}
	// Same pin again: the shard mines its held slice a second time.
	again, _, err := be.MineShard(context.Background(), 0, "UApriori", th, 1)
	if err != nil {
		t.Fatal(err)
	}
	requireSameSets(t, again, shard0)
	if mines := servers[0].Stats().Mines; mines != 2 {
		t.Fatalf("shard 0 mines = %d, want 2", mines)
	}
}

// TestMineShardWorkersClamped: the shard caps a request's workers at its
// GOMAXPROCS, so a huge value mines normally (bit-identical to the local
// mine) instead of starting one stealing worker per requested worker.
func TestMineShardWorkersClamped(t *testing.T) {
	db := testDB(2, 200)
	addrs, _ := startShards(t, 1)
	pool, err := NewPool(PoolConfig{Addrs: addrs, Tuning: fastTuning()})
	if err != nil {
		t.Fatal(err)
	}
	be, err := pool.Backend("d", 1, db, 1, Hooks{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	th := core.Thresholds{MinESup: 0.1}
	sets, stats, err := be.MineShard(context.Background(), 0, "UH-Mine", th, math.MaxInt)
	if err != nil {
		t.Fatal(err)
	}
	wantSets, wantStats := localShardMine(t, db, 0, db.N(), "UH-Mine", th)
	requireSameSets(t, sets, wantSets)
	if stats != wantStats {
		t.Fatalf("stats: got %+v, want %+v", stats, wantStats)
	}
}

// TestVersionInvalidationDeltaPush: after an append-only "ingest" bumps the
// version, the shard rejects the stale pin and the coordinator re-pushes
// only the delta (the held slice hash-verifies as a prefix).
func TestVersionInvalidationDeltaPush(t *testing.T) {
	old := testDB(2, 200)
	addrs, servers := startShards(t, 1)
	pool, err := NewPool(PoolConfig{Addrs: addrs, Tuning: fastTuning()})
	if err != nil {
		t.Fatal(err)
	}
	th := core.Thresholds{MinESup: 0.1}

	var c counters
	be1, err := pool.Backend("d", 1, old, 1, c.hooks(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := be1.MineShard(context.Background(), 0, "UApriori", th, 1); err != nil {
		t.Fatal(err)
	}

	// Append 100 transactions — shard 0 of a K=1 scatter keeps lo=0, so the
	// held slice is a bit-exact prefix of the new one.
	extra := testDB(3, 100)
	b := core.NewBuilder("d")
	b.Grow(old.N()+extra.N(), old.NumUnits()+extra.NumUnits())
	b.AddDatabase(old)
	b.AddDatabase(extra)
	grown := b.Build()
	if grown.NumItems < old.NumItems {
		grown.SetNumItems(old.NumItems)
	}

	be2, err := pool.Backend("d", 2, grown, 1, c.hooks(), nil)
	if err != nil {
		t.Fatal(err)
	}
	sets, _, err := be2.MineShard(context.Background(), 0, "UApriori", th, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantSets, _ := localShardMine(t, grown, 0, grown.N(), "UApriori", th)
	requireSameSets(t, sets, wantSets)

	st := servers[0].Stats()
	if st.StaleRejects != 2 {
		t.Fatalf("stale rejects = %d, want 2 (initial population + post-ingest)", st.StaleRejects)
	}
	if st.DeltaPushes != 1 {
		t.Fatalf("delta pushes = %d, want 1 (the post-ingest re-push)", st.DeltaPushes)
	}
	if got := st.Datasets["d"]; got.Version != 2 || got.N != grown.N() {
		t.Fatalf("shard holds %+v, want v2 with %d transactions", got, grown.N())
	}
}

// TestAppendDeltaPushEveryShard: with K = 2, appending a few transactions
// leaves the shard boundary where it was, so after the version bump both
// shards take the delta path — shard 0 an empty delta, shard 1 just the new
// tail — and the re-pushes cost bytes proportional to the append.
func TestAppendDeltaPushEveryShard(t *testing.T) {
	old := testDB(2, 600)
	addrs, servers := startShards(t, 2)
	pool, err := NewPool(PoolConfig{Addrs: addrs, Tuning: fastTuning()})
	if err != nil {
		t.Fatal(err)
	}
	th := core.Thresholds{MinESup: 0.1}
	be1, err := pool.Backend("d", 1, old, 2, Hooks{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for shard := range 2 {
		if _, _, err := be1.MineShard(context.Background(), shard, "UApriori", th, 1); err != nil {
			t.Fatal(err)
		}
	}
	before := []ShardStats{servers[0].Stats(), servers[1].Stats()}
	pushed := pool.BytesPushed()

	b := core.NewBuilder("d")
	b.AddDatabase(old)
	b.AddDatabase(testDB(3, 2))
	grown := b.Build()
	if grown.NumItems < old.NumItems {
		grown.SetNumItems(old.NumItems)
	}
	bounds := partition.Boundaries(grown.N(), 2)
	if bounds[1].Lo != partition.Boundaries(old.N(), 2)[1].Lo {
		t.Fatalf("a 2-transaction append moved the shard boundary: %+v", bounds)
	}
	be2, err := pool.Backend("d", 2, grown, 2, Hooks{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for shard, r := range bounds {
		sets, _, err := be2.MineShard(context.Background(), shard, "UApriori", th, 1)
		if err != nil {
			t.Fatal(err)
		}
		wantSets, _ := localShardMine(t, grown, r.Lo, r.Hi, "UApriori", th)
		requireSameSets(t, sets, wantSets)

		st := servers[shard].Stats()
		if got := st.DeltaPushes - before[shard].DeltaPushes; got != 1 {
			t.Fatalf("shard %d: %d delta pushes after the append, want 1", shard, got)
		}
		if full := (st.Pushes - st.DeltaPushes) - (before[shard].Pushes - before[shard].DeltaPushes); full != 0 {
			t.Fatalf("shard %d: %d full pushes after the append, want 0", shard, full)
		}
		if got := st.Datasets["d"]; got.Version != 2 || got.Lo != r.Lo || got.Hi != r.Hi {
			t.Fatalf("shard %d holds %+v, want v2 [%d,%d)", shard, got, r.Lo, r.Hi)
		}
	}
	if grew := pool.BytesPushed() - pushed; grew >= 4096 {
		t.Fatalf("re-pushes after a 2-transaction append sent %d bytes, want < 4 KB", grew)
	}
}

// TestContentChangeFullRepush: when the held slice is NOT a prefix of the
// new one (content changed, e.g. a windowed eviction), the hash check fails
// and the re-push is full, never a corrupting delta.
func TestContentChangeFullRepush(t *testing.T) {
	v1 := testDB(4, 150)
	v2 := testDB(5, 150) // same length, different content
	addrs, servers := startShards(t, 1)
	pool, err := NewPool(PoolConfig{Addrs: addrs, Tuning: fastTuning()})
	if err != nil {
		t.Fatal(err)
	}
	th := core.Thresholds{MinESup: 0.1}
	var c counters
	be1, _ := pool.Backend("d", 1, v1, 1, c.hooks(), nil)
	if _, _, err := be1.MineShard(context.Background(), 0, "UApriori", th, 1); err != nil {
		t.Fatal(err)
	}
	be2, _ := pool.Backend("d", 2, v2, 1, c.hooks(), nil)
	sets, _, err := be2.MineShard(context.Background(), 0, "UApriori", th, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantSets, _ := localShardMine(t, v2, 0, v2.N(), "UApriori", th)
	requireSameSets(t, sets, wantSets)
	if st := servers[0].Stats(); st.DeltaPushes != 0 {
		t.Fatalf("delta pushes = %d, want 0 (content changed, full push required)", st.DeltaPushes)
	}
}

// flakyProxy fails the first n requests with 503, then proxies to the real
// shard handler.
type flakyProxy struct {
	inner http.Handler
	fails atomic.Int64
}

func (f *flakyProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if f.fails.Add(-1) >= 0 {
		http.Error(w, `{"error":"injected 503"}`, http.StatusServiceUnavailable)
		return
	}
	f.inner.ServeHTTP(w, r)
}

// TestTimeoutRetry: injected 5xx failures are retried with backoff and the
// mine still returns the bit-identical result.
func TestTimeoutRetry(t *testing.T) {
	db := testDB(6, 200)
	ss := NewShardServer(ShardConfig{})
	proxy := &flakyProxy{inner: ss.Handler()}
	proxy.fails.Store(2)
	ts := httptest.NewServer(proxy)
	defer ts.Close()

	pool, err := NewPool(PoolConfig{Addrs: []string{ts.URL}, Tuning: fastTuning()})
	if err != nil {
		t.Fatal(err)
	}
	var c counters
	be, _ := pool.Backend("d", 1, db, 1, c.hooks(), nil)
	th := core.Thresholds{MinESup: 0.1}
	sets, _, err := be.MineShard(context.Background(), 0, "UApriori", th, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantSets, _ := localShardMine(t, db, 0, db.N(), "UApriori", th)
	requireSameSets(t, sets, wantSets)
	if got := c.retries.Load(); got != 2 {
		t.Fatalf("retries = %d, want 2 (both injected failures retried)", got)
	}
	if c.failovers.Load() != 0 {
		t.Fatal("failover fired despite retries succeeding")
	}
}

// stragglerProxy delays the first /mine1 request until released (or the
// request's context dies); everything else passes straight through.
type stragglerProxy struct {
	inner   http.Handler
	delayed atomic.Int64
}

func (s *stragglerProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == pathMine1 && s.delayed.Add(1) == 1 {
		// Hold the first mine until its client gives up. The body must be
		// drained first: the server only watches for client aborts once the
		// request body has been consumed. The timer is a test safety net —
		// the context cancellation is what the hedge path must deliver.
		io.Copy(io.Discard, r.Body)
		select {
		case <-r.Context().Done():
		case <-time.After(10 * time.Second):
		}
		http.Error(w, `{"error":"straggler canceled"}`, http.StatusServiceUnavailable)
		return
	}
	s.inner.ServeHTTP(w, r)
}

// TestHedgeBeatsStraggler: a straggling first request is hedged after
// HedgeAfter; the duplicate wins, the straggler's context is canceled, and
// the result is bit-identical.
func TestHedgeBeatsStraggler(t *testing.T) {
	db := testDB(7, 200)
	ss := NewShardServer(ShardConfig{})
	proxy := &stragglerProxy{inner: ss.Handler()}
	ts := httptest.NewServer(proxy)
	defer ts.Close()

	tun := fastTuning()
	tun.HedgeAfter = 20 * time.Millisecond
	pool, err := NewPool(PoolConfig{Addrs: []string{ts.URL}, Tuning: tun})
	if err != nil {
		t.Fatal(err)
	}
	var c counters
	be, _ := pool.Backend("d", 1, db, 1, c.hooks(), nil)
	th := core.Thresholds{MinESup: 0.1}
	sets, _, err := be.MineShard(context.Background(), 0, "UApriori", th, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantSets, _ := localShardMine(t, db, 0, db.N(), "UApriori", th)
	requireSameSets(t, sets, wantSets)
	if got := c.hedges.Load(); got < 1 {
		t.Fatalf("hedges = %d, want ≥ 1", got)
	}
	if c.failovers.Load() != 0 {
		t.Fatal("failover fired despite the hedge winning")
	}
}

// TestDeadShardFailover: a shard that never answers (closed port) exhausts
// its retries and fails over to a local mine of the coordinator's slice —
// same result, degraded distribution.
func TestDeadShardFailover(t *testing.T) {
	db := testDB(8, 200)
	// A listener that is immediately closed: connections are refused fast.
	dead := httptest.NewServer(http.NotFoundHandler())
	deadAddr := dead.URL
	dead.Close()

	tun := fastTuning()
	tun.MaxRetries = 1
	pool, err := NewPool(PoolConfig{Addrs: []string{deadAddr}, Tuning: tun})
	if err != nil {
		t.Fatal(err)
	}
	var c counters
	be, _ := pool.Backend("d", 1, db, 1, c.hooks(), nil)
	th := core.Thresholds{MinESup: 0.1}
	sets, stats, err := be.MineShard(context.Background(), 0, "UApriori", th, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantSets, wantStats := localShardMine(t, db, 0, db.N(), "UApriori", th)
	requireSameSets(t, sets, wantSets)
	if stats != wantStats {
		t.Fatalf("failover stats: got %+v, want %+v", stats, wantStats)
	}
	if c.failovers.Load() != 1 || c.retries.Load() != 1 {
		t.Fatalf("failovers/retries = %d/%d, want 1/1", c.failovers.Load(), c.retries.Load())
	}
}

// TestMineShardCancellation: a canceled caller context surfaces as ctx.Err,
// never as a retry storm or a failover mine.
func TestMineShardCancellation(t *testing.T) {
	db := testDB(9, 200)
	addrs, _ := startShards(t, 1)
	pool, err := NewPool(PoolConfig{Addrs: addrs, Tuning: fastTuning()})
	if err != nil {
		t.Fatal(err)
	}
	var c counters
	be, _ := pool.Backend("d", 1, db, 1, c.hooks(), nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err = be.MineShard(ctx, 0, "UApriori", core.Thresholds{MinESup: 0.1}, 1)
	if err == nil || ctx.Err() == nil {
		t.Fatalf("canceled mine returned %v", err)
	}
	if c.failovers.Load() != 0 {
		t.Fatal("cancellation must not trigger failover")
	}
}

// TestMiningErrorIsPermanent: a shard-side mining error (unknown algorithm)
// is final — no retries, no failover masking a real bug.
func TestMiningErrorIsPermanent(t *testing.T) {
	db := testDB(10, 200)
	addrs, _ := startShards(t, 1)
	pool, err := NewPool(PoolConfig{Addrs: addrs, Tuning: fastTuning()})
	if err != nil {
		t.Fatal(err)
	}
	var c counters
	be, _ := pool.Backend("d", 1, db, 1, c.hooks(), nil)
	_, _, err = be.MineShard(context.Background(), 0, "NoSuchMiner", core.Thresholds{MinESup: 0.1}, 1)
	if err == nil {
		t.Fatal("unknown algorithm succeeded")
	}
	if c.retries.Load() != 0 || c.failovers.Load() != 0 {
		t.Fatalf("permanent error consumed retries/failovers: %d/%d", c.retries.Load(), c.failovers.Load())
	}
}

// TestNoGoroutineLeaks: the robustness paths (hedge loser, failover, dead
// shard) leave no goroutines behind once their mines complete.
func TestNoGoroutineLeaks(t *testing.T) {
	before := runtime.NumGoroutine()
	t.Run("paths", func(t *testing.T) {
		t.Run("hedge", TestHedgeBeatsStraggler)
		t.Run("failover", TestDeadShardFailover)
		t.Run("retry", TestTimeoutRetry)
	})
	var after int
	for i := 0; i < 100; i++ {
		runtime.GC()
		after = runtime.NumGoroutine()
		if after <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines: %d before, %d after robustness paths", before, after)
}

// TestTxHashRoundTrip: the wire encoding round-trips probabilities bit-
// exactly, so a pushed slice hashes identically on both sides.
func TestTxHashRoundTrip(t *testing.T) {
	db := testDB(11, 50)
	lines := encodeTransactions(db, 0, db.N())
	back, err := decodeTransactions("d", nil, lines)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumItems < db.NumItems {
		back.SetNumItems(db.NumItems)
	}
	if TxHash(back, back.N()) != TxHash(db, db.N()) {
		t.Fatal("re-decoded slice hashes differently: wire format is lossy")
	}
	for j := 0; j < db.N(); j++ {
		a, b := db.Tx(j), back.Tx(j)
		if len(a.Items) != len(b.Items) {
			t.Fatalf("tx %d length differs", j)
		}
		for i := range a.Items {
			if a.Items[i] != b.Items[i] || !bitsEq(a.Probs[i], b.Probs[i]) {
				t.Fatalf("tx %d unit %d differs: %v:%v vs %v:%v", j, i, a.Items[i], a.Probs[i], b.Items[i], b.Probs[i])
			}
		}
	}
}

// fnvTxHash is the reference TxHash: hash/fnv's FNV-1a fed one unit piece
// at a time.
func fnvTxHash(db *core.Database, lo, hi int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for j := lo; j < hi; j++ {
		tx := db.Tx(j)
		for i, it := range tx.Items {
			binary.LittleEndian.PutUint32(buf[:4], uint32(it))
			h.Write(buf[:4])
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(tx.Probs[i]))
			h.Write(buf[:])
		}
		h.Write([]byte{0xFF})
	}
	return h.Sum64()
}

// TestTxHashMatchesFNV: the inlined FNV-1a loop returns hash/fnv's Sum64 on
// random slices (empty transactions and extreme probabilities included),
// and extending a prefix's hash over the tail equals hashing the whole.
func TestTxHashMatchesFNV(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	extremes := []float64{math.SmallestNonzeroFloat64, 1e-300, 0.5, math.Nextafter(1, 0), 1}
	for trial := range 20 {
		raw := make([][]core.Unit, rng.Intn(60))
		for j := range raw {
			for range rng.Intn(6) { // 0 units: an empty transaction
				p := rng.Float64()
				if rng.Intn(3) == 0 {
					p = extremes[rng.Intn(len(extremes))]
				}
				raw[j] = append(raw[j], core.Unit{Item: core.Item(rng.Intn(1 << 20)), Prob: max(p, math.SmallestNonzeroFloat64)})
			}
		}
		db := core.MustNewDatabase("d", raw)
		n := db.N()
		if got, want := TxHash(db, n), fnvTxHash(db, 0, n); got != want {
			t.Fatalf("trial %d: TxHash = %#x, hash/fnv = %#x", trial, got, want)
		}
		cut := 0
		if n > 0 {
			cut = rng.Intn(n + 1)
		}
		if got, want := extendTxHash(TxHash(db, cut), db, cut, n), TxHash(db, n); got != want {
			t.Fatalf("trial %d: extending the [0,%d) hash to %d = %#x, full rehash %#x", trial, cut, n, got, want)
		}
	}
}
