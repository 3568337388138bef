package server

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"umine/internal/core"
	"umine/internal/obsq"
	"umine/internal/telemetry"
)

var updateGoldens = flag.Bool("update", false, "rewrite the explain golden files")

// normalizeExplanation zeroes every timing- and environment-dependent field
// so the rest of the document — the executed plan, its counters, the
// serving path, the shard timeline shape — can be pinned byte-for-byte.
// Mining is bit-identical at every worker count, so everything left IS
// deterministic; a golden diff means the plan-choice or cost-accounting
// logic changed.
func normalizeExplanation(ex *obsq.Explanation) {
	ex.ElapsedMS = 0
	ex.TraceID = ""
	for i := range ex.Steps {
		ex.Steps[i].ElapsedMS = 0
		ex.Steps[i].PeakTrackedBytes = 0
	}
	ex.Totals.PeakTrackedBytes = 0
	for i := range ex.ShardAttempts {
		ex.ShardAttempts[i].StartUnixNano = 0
		ex.ShardAttempts[i].DurationMS = 0
		ex.ShardAttempts[i].Bytes = 0
	}
	ex.BytesPushed = 0
	ex.BytesMineRequests = 0
}

// checkExplainGolden compares the normalized document against its golden
// file (go test ./internal/server -run TestExplain -update rewrites them).
func checkExplainGolden(t *testing.T, name string, ex *obsq.Explanation) {
	t.Helper()
	normalizeExplanation(ex)
	got, err := json.MarshalIndent(ex, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", name+".golden")
	if *updateGoldens {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("%s drifted from its golden.\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

// TestExplainLocalAndCacheHit: a cold query explains as a local mine with
// per-level plan steps; repeating it explains as a cache hit with no
// executed plan.
func TestExplainLocalAndCacheHit(t *testing.T) {
	s := newTestServer(t, testDB(t))
	req := MineRequest{Dataset: "d", Algorithm: "UApriori", Thresholds: core.Thresholds{MinESup: 0.3}}

	cold, err := s.Explain(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Backend != "local" || cold.Path != "mined" {
		t.Fatalf("cold explain backend/path = %s/%s, want local/mined", cold.Backend, cold.Path)
	}
	if len(cold.Steps) == 0 || cold.Totals.CandidatesGenerated == 0 || cold.MaxLevel == 0 {
		t.Fatalf("cold explain has no plan: %+v", cold)
	}
	checkExplainGolden(t, "explain_local_mined", cold)

	hot, err := s.Explain(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if hot.Backend != "cache" || hot.Path != "cache-hit" {
		t.Fatalf("hot explain backend/path = %s/%s, want cache/cache-hit", hot.Backend, hot.Path)
	}
	if len(hot.Steps) != 0 || hot.Totals.CandidatesGenerated != 0 {
		t.Fatalf("cache hit ran a plan: %+v", hot)
	}
	checkExplainGolden(t, "explain_cache_hit", hot)
}

// TestExplainSharded: the in-process partition backend explains with one
// partition step per shard, the phase-2 levels, and a "shard" span timeline.
func TestExplainSharded(t *testing.T) {
	s := New(Config{Telemetry: telemetry.NewHub(telemetry.HubConfig{TraceCapacity: 8})})
	if _, err := s.RegisterDatabase("d", shardTestDB(), RegisterOptions{Shards: 3}); err != nil {
		t.Fatal(err)
	}
	ex, err := s.Explain(context.Background(), MineRequest{
		Dataset: "d", Algorithm: "UApriori", Thresholds: core.Thresholds{MinESup: 0.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Backend != "sharded" || ex.Shards != 3 || ex.Path != "mined" {
		t.Fatalf("sharded explain backend/shards/path = %s/%d/%s", ex.Backend, ex.Shards, ex.Path)
	}
	parts := 0
	for _, st := range ex.Steps {
		if st.Phase == "partition" {
			parts++
		}
	}
	if parts != 3 {
		t.Fatalf("explain shows %d partition steps, want 3: %+v", parts, ex.Steps)
	}
	shardSpans := 0
	for _, a := range ex.ShardAttempts {
		if a.Kind == "shard" {
			shardSpans++
		}
	}
	if shardSpans != 3 {
		t.Fatalf("shard timeline has %d shard spans, want 3: %+v", shardSpans, ex.ShardAttempts)
	}
	checkExplainGolden(t, "explain_sharded", ex)
}

// TestExplainLedger: after a subscription's incremental refresh repopulates
// the cache, the same query explains as served from the ledger.
func TestExplainLedger(t *testing.T) {
	s := newTestServer(t, testDB(t))
	th := core.Thresholds{MinESup: 0.3}
	sub, err := s.Subscribe(context.Background(), SubscribeRequest{Dataset: "d", Algorithm: "UApriori", Thresholds: th})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()
	waitDiff(t, sub) // snapshot

	if _, err := s.Ingest(context.Background(), "d", [][]core.Unit{
		{{Item: 0, Prob: 0.9}, {Item: 1, Prob: 0.8}},
	}); err != nil {
		t.Fatal(err)
	}
	waitDiff(t, sub) // refresh: the ledger result is now in the cache

	ex, err := s.Explain(context.Background(), MineRequest{Dataset: "d", Algorithm: "UApriori", Thresholds: th})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Backend != "cache" || ex.Path != "ledger" {
		t.Fatalf("post-refresh explain backend/path = %s/%s, want cache/ledger", ex.Backend, ex.Path)
	}
	checkExplainGolden(t, "explain_ledger", ex)
}

// TestExplainShardRPC: over a real shard cluster the explanation reports the
// shardrpc backend, a timeline with wire attempts, and the pushed bytes.
// Timings and payload sizes vary, so this path asserts structure rather
// than a golden.
func TestExplainShardRPC(t *testing.T) {
	s := New(Config{ShardPool: startShardCluster(t, 2), Telemetry: telemetry.NewHub(telemetry.HubConfig{TraceCapacity: 8})})
	if _, err := s.RegisterDatabase("d", shardTestDB(), RegisterOptions{Shards: 2}); err != nil {
		t.Fatal(err)
	}
	ex, err := s.Explain(context.Background(), MineRequest{
		Dataset: "d", Algorithm: "UApriori", Thresholds: core.Thresholds{MinESup: 0.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Backend != "shardrpc" || ex.Shards != 2 || ex.Path != "mined" {
		t.Fatalf("rpc explain backend/shards/path = %s/%d/%s", ex.Backend, ex.Shards, ex.Path)
	}
	if ex.BytesPushed <= 0 || ex.BytesMineRequests <= 0 {
		t.Errorf("wire accounting: pushed=%d mine=%d, want both > 0", ex.BytesPushed, ex.BytesMineRequests)
	}
	kinds := map[string]int{}
	for _, a := range ex.ShardAttempts {
		kinds[a.Kind]++
	}
	if kinds["shard"] != 2 || kinds["attempt"] < 2 {
		t.Errorf("rpc shard timeline kinds = %v, want 2 shard spans and >=2 attempts", kinds)
	}
	// A cold cluster's first attempt per shard may come back "stale" (no
	// slice held yet → push → retry); each shard must still end in an "ok".
	ok := map[int]bool{}
	for _, a := range ex.ShardAttempts {
		if a.Kind == "attempt" && a.Outcome == "ok" {
			ok[a.Shard] = true
		}
	}
	if !ok[0] || !ok[1] {
		t.Errorf("not every shard reached an ok attempt: %+v", ex.ShardAttempts)
	}
	// The mined bits are still bit-identical to a plain mine of the same DB.
	plain := newTestServer(t, shardTestDB())
	want, err := plain.Mine(context.Background(), MineRequest{
		Dataset: "d", Algorithm: "UApriori", Thresholds: core.Thresholds{MinESup: 0.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Itemsets != want.Results.Len() {
		t.Errorf("rpc explain itemsets = %d, plain mine found %d", ex.Itemsets, want.Results.Len())
	}
}

// TestExplainTraceAgreement: one collector times every checkpoint, so the
// request trace's checkpoint spans under "mine" and the explanation's steps
// are the same intervals — one for one, by name and order, with equal
// durations.
func TestExplainTraceAgreement(t *testing.T) {
	hub := telemetry.NewHub(telemetry.HubConfig{TraceCapacity: 8})
	s := New(Config{Telemetry: hub})
	if _, err := s.RegisterDatabase("d", testDB(t), RegisterOptions{}); err != nil {
		t.Fatal(err)
	}
	ex, err := s.Explain(context.Background(), MineRequest{
		Dataset: "d", Algorithm: "UApriori", Thresholds: core.Thresholds{MinESup: 0.3},
	})
	if err != nil {
		t.Fatal(err)
	}
	td, ok := hub.Trace(ex.TraceID)
	if !ok {
		t.Fatalf("trace %q not retained", ex.TraceID)
	}
	mine, ok := td.Root.Find("mine")
	if !ok {
		t.Fatal("trace has no mine span")
	}
	if len(ex.Steps) == 0 || len(mine.Children) != len(ex.Steps) {
		t.Fatalf("mine span has %d checkpoint spans, explanation %d steps", len(mine.Children), len(ex.Steps))
	}
	for i, step := range ex.Steps {
		sp := mine.Children[i]
		if want := fmt.Sprintf("%s %d", step.Phase, step.Level); sp.Name != want {
			t.Errorf("checkpoint span %d is %q, step is %q", i, sp.Name, want)
		}
		if sp.DurationMS != step.ElapsedMS {
			t.Errorf("%s: span %.6fms, step %.6fms — two clocks", sp.Name, sp.DurationMS, step.ElapsedMS)
		}
		if got, want := sp.Attrs["candidates"], fmt.Sprint(step.CandidatesGenerated); got != want {
			t.Errorf("%s: span candidates %s, step candidates %s", sp.Name, got, want)
		}
	}
}

// TestMineWithoutObserversHasNilProgress: a mine with neither a trace nor an
// Explain hands the miner a nil Progress, so observation costs nothing.
func TestMineWithoutObserversHasNilProgress(t *testing.T) {
	s := newTestServer(t, testDB(t))
	base := s.mineFn
	var calls int
	var progress core.ProgressFunc
	s.mineFn = func(ctx context.Context, alg string, db *core.Database, th core.Thresholds, opts core.Options) (*core.ResultSet, error) {
		calls++
		progress = opts.Progress
		return base(ctx, alg, db, th, opts)
	}
	if _, err := s.Mine(context.Background(), MineRequest{
		Dataset: "d", Algorithm: "UApriori", Thresholds: core.Thresholds{MinESup: 0.3},
	}); err != nil {
		t.Fatal(err)
	}
	if calls != 1 || progress != nil {
		t.Errorf("mineFn calls = %d, Progress nil = %v; want 1 call with a nil Progress", calls, progress == nil)
	}
}

// TestWorkersClampedToCores: a client's workers value is capped at
// GOMAXPROCS. An uncapped value reaches the work-stealing scheduler, which
// allocates one deque and starts one goroutine per requested worker.
func TestWorkersClampedToCores(t *testing.T) {
	const huge = math.MaxInt
	s, ts := httpFixture(t)
	ex, err := s.Explain(context.Background(), MineRequest{
		Dataset: "d", Algorithm: "UApriori", Thresholds: core.Thresholds{MinESup: 0.3}, Workers: huge,
	})
	if err != nil {
		t.Fatal(err)
	}
	if procs := runtime.GOMAXPROCS(0); ex.Workers > procs {
		t.Fatalf("explain reports %d workers, want at most GOMAXPROCS=%d", ex.Workers, procs)
	}

	th := core.Thresholds{MinESup: 0.1}
	resp, body := post(t, ts.URL+"/mine", mineRequestJSON{Dataset: "d", Algorithm: "UH-Mine", Thresholds: th, Workers: huge, NoCache: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/mine with workers=%d: %d %s", huge, resp.StatusCode, body)
	}
	d, _ := s.reg.get("d")
	db := d.ledgerSnapshot().DB
	if want := marshal(t, directMine(t, "UH-Mine", db, th)); !bytes.Equal(body, want) {
		t.Errorf("/mine with workers=%d differs from a direct mine\ngot:  %s\nwant: %s", huge, body, want)
	}
}
