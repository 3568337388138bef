package server

import (
	"bytes"
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"umine/internal/algo"
	"umine/internal/core"
	"umine/internal/core/coretest"
)

// testDB builds a small random uncertain database shared by the cache tests.
func testDB(t *testing.T) *core.Database {
	t.Helper()
	return coretest.RandomDB(rand.New(rand.NewSource(7)), 40, 8, 0.7)
}

// newTestServer registers db under "d" on a fresh server.
func newTestServer(t *testing.T, db *core.Database) *Server {
	t.Helper()
	s := New(Config{})
	if _, err := s.RegisterDatabase("d", db, RegisterOptions{}); err != nil {
		t.Fatal(err)
	}
	return s
}

// marshal serializes a result set the way /mine does.
func marshal(t *testing.T, rs *core.ResultSet) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rs.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// directMine is the reference: a fresh miner run at exactly the requested
// thresholds, as umine.MineWith would.
func directMine(t *testing.T, alg string, db *core.Database, th core.Thresholds) *core.ResultSet {
	t.Helper()
	m, err := algo.New(alg)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := m.Mine(context.Background(), db, th)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// TestMonotonicFilterBitIdentical is the core cache guarantee: a query
// answered by filtering a cached lower-threshold result set serializes to
// exactly the bytes a direct MineWith call at the queried thresholds
// produces — for every algorithm the cache filters.
func TestMonotonicFilterBitIdentical(t *testing.T) {
	db := testDB(t)
	type tc struct {
		alg      string
		low, hi  core.Thresholds
		wantKind string
	}
	var cases []tc
	for _, e := range algo.Entries() {
		switch e.Family {
		case algo.ExpectedSupportFamily:
			cases = append(cases, tc{
				alg: e.Name,
				low: core.Thresholds{MinESup: 0.1},
				hi:  core.Thresholds{MinESup: 0.2},
			})
		default:
			if e.PFTMonotonic {
				cases = append(cases, tc{
					alg: e.Name,
					low: core.Thresholds{MinSup: 0.15, PFT: 0.3},
					hi:  core.Thresholds{MinSup: 0.15, PFT: 0.6},
				})
			}
		}
	}
	if len(cases) < 8 {
		t.Fatalf("expected at least 8 filterable algorithms, have %d", len(cases))
	}
	for _, c := range cases {
		t.Run(c.alg, func(t *testing.T) {
			s := newTestServer(t, db)
			ctx := context.Background()
			warm, err := s.Mine(ctx, MineRequest{Dataset: "d", Algorithm: c.alg, Thresholds: c.low})
			if err != nil {
				t.Fatal(err)
			}
			if warm.Cache != CacheMiss {
				t.Fatalf("warming query: cache=%q, want %q", warm.Cache, CacheMiss)
			}
			got, err := s.Mine(ctx, MineRequest{Dataset: "d", Algorithm: c.alg, Thresholds: c.hi})
			if err != nil {
				t.Fatal(err)
			}
			if got.Cache != CacheFiltered {
				t.Fatalf("higher-threshold query: cache=%q, want %q", got.Cache, CacheFiltered)
			}
			want := directMine(t, c.alg, db, c.hi)
			if want.Len() == 0 {
				t.Fatalf("degenerate test: direct mine at %+v is empty", c.hi)
			}
			if !bytes.Equal(marshal(t, got.Results), marshal(t, want)) {
				t.Errorf("filtered result not bit-identical to direct mine\nfiltered: %s\ndirect:   %s",
					marshal(t, got.Results), marshal(t, want))
			}
			// The filtered set was stored back: the same query is now an
			// exact hit, still bit-identical.
			hit, err := s.Mine(ctx, MineRequest{Dataset: "d", Algorithm: c.alg, Thresholds: c.hi})
			if err != nil {
				t.Fatal(err)
			}
			if hit.Cache != CacheHit {
				t.Fatalf("repeat query: cache=%q, want %q", hit.Cache, CacheHit)
			}
			if !bytes.Equal(marshal(t, hit.Results), marshal(t, want)) {
				t.Error("cache-hit result not bit-identical to direct mine")
			}
		})
	}
}

// TestExactHitBitIdentical: a plain repeat query is served from cache,
// bit-identical to the direct call.
func TestExactHitBitIdentical(t *testing.T) {
	db := testDB(t)
	s := newTestServer(t, db)
	ctx := context.Background()
	th := core.Thresholds{MinSup: 0.3, PFT: 0.7}
	first, err := s.Mine(ctx, MineRequest{Dataset: "d", Algorithm: "DCB", Thresholds: th})
	if err != nil {
		t.Fatal(err)
	}
	if first.Cache != CacheMiss {
		t.Fatalf("first query: cache=%q", first.Cache)
	}
	second, err := s.Mine(ctx, MineRequest{Dataset: "d", Algorithm: "DCB", Thresholds: th})
	if err != nil {
		t.Fatal(err)
	}
	if second.Cache != CacheHit {
		t.Fatalf("second query: cache=%q, want %q", second.Cache, CacheHit)
	}
	want := directMine(t, "DCB", db, th)
	if !bytes.Equal(marshal(t, second.Results), marshal(t, want)) {
		t.Error("cache-hit response not bit-identical to direct MineWith")
	}
}

// TestPftNotFilterableAlgorithms: PDUApriori (no per-itemset probability)
// and MCSampling (pft-dependent sampling) must re-mine at a new pft.
func TestPftNotFilterableAlgorithms(t *testing.T) {
	db := testDB(t)
	for _, alg := range []string{"PDUApriori", "MCSampling"} {
		s := newTestServer(t, db)
		ctx := context.Background()
		if _, err := s.Mine(ctx, MineRequest{Dataset: "d", Algorithm: alg, Thresholds: core.Thresholds{MinSup: 0.3, PFT: 0.5}}); err != nil {
			t.Fatal(err)
		}
		got, err := s.Mine(ctx, MineRequest{Dataset: "d", Algorithm: alg, Thresholds: core.Thresholds{MinSup: 0.3, PFT: 0.8}})
		if err != nil {
			t.Fatal(err)
		}
		if got.Cache != CacheMiss {
			t.Errorf("%s at higher pft: cache=%q, want %q (must not filter)", alg, got.Cache, CacheMiss)
		}
	}
}

// TestIngestInvalidatesCache: a version bump makes the next query re-mine
// over the appended data.
func TestIngestInvalidatesCache(t *testing.T) {
	db := testDB(t)
	s := newTestServer(t, db)
	ctx := context.Background()
	th := core.Thresholds{MinESup: 0.2}
	req := MineRequest{Dataset: "d", Algorithm: "UApriori", Thresholds: th}

	first, err := s.Mine(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if first.DatasetVersion != 0 {
		t.Fatalf("initial version %d, want 0", first.DatasetVersion)
	}

	added := []core.Unit{{Item: 0, Prob: 1}, {Item: 1, Prob: 0.9}}
	res, err := s.Ingest(context.Background(), "d", [][]core.Unit{added})
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != 1 || res.N != db.N()+1 {
		t.Fatalf("ingest result %+v, want version 1, n %d", res, db.N()+1)
	}

	second, err := s.Mine(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if second.Cache != CacheMiss {
		t.Fatalf("post-ingest query: cache=%q, want %q (stale hit)", second.Cache, CacheMiss)
	}
	if second.DatasetVersion != 1 {
		t.Fatalf("post-ingest version %d, want 1", second.DatasetVersion)
	}

	// The re-mine matches a direct mine over the appended database.
	tx, err := core.NormalizeTransaction(added)
	if err != nil {
		t.Fatal(err)
	}
	grown := coretest.FromTransactions(db.Name, append(db.Transactions(), tx))
	if grown.NumItems < db.NumItems {
		grown.SetNumItems(db.NumItems)
	}
	want := directMine(t, "UApriori", grown, th)
	if !bytes.Equal(marshal(t, second.Results), marshal(t, want)) {
		t.Error("post-ingest result does not match direct mine over appended database")
	}
}

// TestEmptyIngestIsNoOp: an ingest that applies nothing must not bump the
// version or wipe the dataset's cached results.
func TestEmptyIngestIsNoOp(t *testing.T) {
	db := testDB(t)
	s := newTestServer(t, db)
	ctx := context.Background()
	req := MineRequest{Dataset: "d", Algorithm: "UApriori", Thresholds: core.Thresholds{MinESup: 0.1}}
	if _, err := s.Mine(ctx, req); err != nil {
		t.Fatal(err)
	}
	res, err := s.Ingest(context.Background(), "d", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != 0 || res.Added != 0 {
		t.Fatalf("empty ingest result %+v, want version 0, added 0", res)
	}
	resp, err := s.Mine(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cache != CacheHit {
		t.Errorf("post-empty-ingest query: cache=%q, want %q (cache wiped by no-op write)", resp.Cache, CacheHit)
	}
	if st := s.Stats(); st.Ingests != 0 {
		t.Errorf("ingest counter %d after a no-op, want 0", st.Ingests)
	}
}

// TestCoalescedRequestsMineOnce: identical concurrent queries on a cold
// cache execute exactly one mining job; the rest share its result.
func TestCoalescedRequestsMineOnce(t *testing.T) {
	const followers = 7
	db := testDB(t)
	s := newTestServer(t, db)
	th := core.Thresholds{MinESup: 0.2}
	q := cacheQuery{dataset: "d", version: 0, algorithm: "UApriori", semantics: core.ExpectedSupport, th: th, n: db.N()}

	var mineCount atomic.Int64
	base := s.mineFn
	s.mineFn = func(ctx context.Context, alg string, db *core.Database, th core.Thresholds, opts core.Options) (*core.ResultSet, error) {
		mineCount.Add(1)
		// Hold the mine until every follower is blocked on the leader, so
		// no request can slip in after completion and hit the cache.
		deadline := time.Now().Add(5 * time.Second)
		for s.flight.waiting(q.key()) < followers {
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(time.Millisecond)
		}
		return base(ctx, alg, db, th, opts)
	}

	var wg sync.WaitGroup
	kinds := make([]string, followers+1)
	errs := make([]error, followers+1)
	for i := 0; i <= followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := s.Mine(context.Background(), MineRequest{Dataset: "d", Algorithm: "UApriori", Thresholds: th})
			if err != nil {
				errs[i] = err
				return
			}
			kinds[i] = resp.Cache
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if n := mineCount.Load(); n != 1 {
		t.Fatalf("mined %d times, want exactly 1", n)
	}
	var miss, coalesced int
	for _, k := range kinds {
		switch k {
		case CacheMiss:
			miss++
		case CacheCoalesced:
			coalesced++
		default:
			t.Errorf("unexpected cache kind %q", k)
		}
	}
	if miss != 1 || coalesced != followers {
		t.Errorf("kinds: %d miss + %d coalesced, want 1 + %d", miss, coalesced, followers)
	}
	st := s.Stats()
	if st.CacheMisses != 1 || st.Coalesced != followers {
		t.Errorf("stats: misses=%d coalesced=%d, want 1 and %d", st.CacheMisses, st.Coalesced, followers)
	}
}

// TestCacheEviction: the LRU cap holds.
func TestCacheEviction(t *testing.T) {
	db := testDB(t)
	s := New(Config{CacheEntries: 4})
	if _, err := s.RegisterDatabase("d", db, RegisterOptions{}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		th := core.Thresholds{MinESup: 0.80 + 0.01*float64(i)}
		if _, err := s.Mine(ctx, MineRequest{Dataset: "d", Algorithm: "UApriori", Thresholds: th}); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.cache.len(); n > 4 {
		t.Errorf("cache holds %d entries, cap 4", n)
	}
}

// TestCacheDisabled: negative CacheEntries turns the cache off entirely.
func TestCacheDisabled(t *testing.T) {
	db := testDB(t)
	s := New(Config{CacheEntries: -1})
	if _, err := s.RegisterDatabase("d", db, RegisterOptions{}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	th := core.Thresholds{MinESup: 0.2}
	for i := 0; i < 2; i++ {
		resp, err := s.Mine(ctx, MineRequest{Dataset: "d", Algorithm: "UApriori", Thresholds: th})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Cache != CacheMiss {
			t.Fatalf("query %d: cache=%q, want %q", i, resp.Cache, CacheMiss)
		}
	}
}
