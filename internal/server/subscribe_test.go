package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"umine/internal/core"
	"umine/internal/incmine"
)

// waitDiff receives the next diff from a subscription, failing the test
// after a timeout rather than hanging it.
func waitDiff(t *testing.T, sub *Subscription) incmine.Diff {
	t.Helper()
	select {
	case d, ok := <-sub.C:
		if !ok {
			t.Fatal("subscription channel closed while waiting for a diff")
		}
		return d
	case <-time.After(30 * time.Second):
		t.Fatal("timed out waiting for a diff")
	}
	panic("unreachable")
}

// TestSubscribeStreamsDiffs covers the programmatic API end to end: a new
// subscriber gets a snapshot diff matching a direct mine, an ingest produces
// exactly one refresh diff consistent with re-mining the new snapshot, the
// refreshed result lands in the cache, and cancel releases the subscriber.
func TestSubscribeStreamsDiffs(t *testing.T) {
	db := testDB(t)
	s := newTestServer(t, db)
	th := core.Thresholds{MinESup: 0.3}
	ctx := context.Background()

	sub, err := s.Subscribe(ctx, SubscribeRequest{Dataset: "d", Algorithm: "UApriori", Thresholds: th})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()
	snap := waitDiff(t, sub)
	if snap.Reason != incmine.ReasonSnapshot {
		t.Fatalf("first diff reason = %q, want snapshot", snap.Reason)
	}
	want := directMine(t, "UApriori", db, th)
	if snap.Total != want.Len() || len(snap.Entered) != want.Len() {
		t.Fatalf("snapshot diff total = %d (entered %d), direct mine has %d", snap.Total, len(snap.Entered), want.Len())
	}

	if st := s.Stats(); st.Subscribers != 1 || st.Ledgers != 1 {
		t.Fatalf("stats subscribers=%d ledgers=%d, want 1/1", st.Subscribers, st.Ledgers)
	}

	res, err := s.Ingest(ctx, "d", [][]core.Unit{
		{{Item: 0, Prob: 0.9}, {Item: 1, Prob: 0.8}},
		{{Item: 0, Prob: 0.7}, {Item: 2, Prob: 0.6}},
	})
	if err != nil {
		t.Fatal(err)
	}
	diff := waitDiff(t, sub)
	if diff.Version != res.Version || diff.N != res.N {
		t.Fatalf("diff version/N = %d/%d, ingest reported %d/%d", diff.Version, diff.N, res.Version, res.N)
	}
	if diff.Seq != snap.Seq+1 {
		t.Fatalf("diff seq = %d after snapshot seq %d", diff.Seq, snap.Seq)
	}
	// The diff must describe exactly the cold result set of the new
	// snapshot.
	d, _ := s.reg.get("d")
	ndb, _ := d.snapshot()
	cold := directMine(t, "UApriori", ndb, th)
	if diff.Total != cold.Len() {
		t.Fatalf("diff total = %d, cold mine of the new snapshot has %d", diff.Total, cold.Len())
	}

	// The refresh stored its result: an immediate /mine is a cache hit with
	// bit-identical bytes.
	resp, err := s.Mine(ctx, MineRequest{Dataset: "d", Algorithm: "UApriori", Thresholds: th})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cache != CacheHit {
		t.Errorf("mine after refresh = cache %q, want hit", resp.Cache)
	}
	if got, want := marshal(t, resp.Results), marshal(t, cold); !bytes.Equal(got, want) {
		t.Error("cache-served refresh result differs from a cold mine")
	}

	if st := s.Stats(); st.IncrementalUpdates < 2 {
		t.Errorf("incremental_updates = %d after build + refresh", st.IncrementalUpdates)
	}
	sub.Cancel()
	sub.Cancel() // idempotent
	if st := s.Stats(); st.Subscribers != 0 {
		t.Errorf("subscribers = %d after cancel", st.Subscribers)
	}
}

// TestSubscribeHTTPBadWorkers: GET /subscribe parses the same query string
// as GET /explain, workers included, so a malformed value is a 400 rather
// than a stream opened with the parameter dropped.
func TestSubscribeHTTPBadWorkers(t *testing.T) {
	s := newTestServer(t, testDB(t))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/subscribe?dataset=d&algo=UApriori&threshold=0.3&workers=x")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("subscribe with workers=x: HTTP %d, want 400", resp.StatusCode)
	}
}

// TestSubscribeHTTPSSE drives the SSE surface: GET /subscribe streams the
// snapshot event, and a POST /ingest batch produces a follow-up diff event.
func TestSubscribeHTTPSSE(t *testing.T) {
	s := newTestServer(t, testDB(t))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/subscribe?dataset=d&algo=UApriori&threshold=0.3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("subscribe status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}
	events := make(chan incmine.Diff, 4)
	errs := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "data: ") {
				continue
			}
			var d incmine.Diff
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &d); err != nil {
				errs <- err
				return
			}
			events <- d
		}
	}()
	next := func() incmine.Diff {
		t.Helper()
		select {
		case d := <-events:
			return d
		case err := <-errs:
			t.Fatalf("decoding event: %v", err)
		case <-time.After(30 * time.Second):
			t.Fatal("timed out waiting for an SSE event")
		}
		panic("unreachable")
	}
	snap := next()
	if snap.Reason != incmine.ReasonSnapshot || snap.Dataset != "d" || snap.Algorithm != "UApriori" {
		t.Fatalf("first event = %+v, want a snapshot for d/UApriori", snap)
	}

	body := `{"dataset":"d","transactions":["0:0.9 1:0.8","2:0.5"]}`
	ir, err := http.Post(ts.URL+"/ingest", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	ir.Body.Close()
	if ir.StatusCode != http.StatusOK {
		t.Fatalf("ingest status = %d", ir.StatusCode)
	}
	diff := next()
	if diff.Seq != snap.Seq+1 || diff.Version != snap.Version+1 {
		t.Fatalf("diff seq/version = %d/%d after snapshot %d/%d", diff.Seq, diff.Version, snap.Seq, snap.Version)
	}
}

// TestIngestSingularTransactionForm: /ingest takes only the batched
// "transactions" array. A body in the retired single-transaction form, or
// with the array missing or empty, is a 400 that leaves the dataset alone,
// so an old client's write is never acknowledged and silently dropped.
func TestIngestSingularTransactionForm(t *testing.T) {
	s := newTestServer(t, testDB(t))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, body := range []string{
		`{"dataset":"d","transaction":"0:0.5 3:0.25"}`,
		`{"dataset":"d"}`,
		`{"dataset":"d","transactions":[]}`,
	} {
		resp, err := http.Post(ts.URL+"/ingest", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("ingest %s: HTTP %d, want 400", body, resp.StatusCode)
		}
	}
	if st := s.Stats(); st.Ingests != 0 {
		t.Errorf("rejected ingests counted: %d, want 0", st.Ingests)
	}
	info, ok := s.Dataset("d")
	if !ok {
		t.Fatal("dataset d missing")
	}
	if info.Version != 0 {
		t.Errorf("rejected ingests bumped the version to %d", info.Version)
	}
}

// TestIngestBatchOneVersionBump pins the batched-ingest atomicity: an
// arbitrary-size array is one snapshot swap — one version bump — so
// subscribers see one refresh per batch, not one per transaction.
func TestIngestBatchOneVersionBump(t *testing.T) {
	db := testDB(t)
	s := newTestServer(t, db)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	lines := make([]string, 7)
	for i := range lines {
		lines[i] = fmt.Sprintf("%d:0.5", i)
	}
	body, _ := json.Marshal(map[string]any{"dataset": "d", "transactions": lines})
	resp, err := http.Post(ts.URL+"/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var res IngestResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.Added != 7 || res.Version != 1 || res.N != db.N()+7 {
		t.Fatalf("batch ingest = %+v, want 7 added in one version bump", res)
	}
}

// TestSubscribeWindowedFallback covers the eviction fallback end to end: on
// a windowed dataset, an ingest that slides the window forces the ledger to
// rebuild (Fallback, window-eviction) — and the rebuilt diff still matches a
// cold mine of the window's snapshot.
func TestSubscribeWindowedFallback(t *testing.T) {
	db := testDB(t)
	s := New(Config{})
	if _, err := s.RegisterDatabase("w", db, RegisterOptions{
		Window: &WindowOptions{Size: db.N()},
	}); err != nil {
		t.Fatal(err)
	}
	th := core.Thresholds{MinESup: 0.3}
	ctx := context.Background()
	sub, err := s.Subscribe(ctx, SubscribeRequest{Dataset: "w", Algorithm: "UApriori", Thresholds: th})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()
	waitDiff(t, sub) // snapshot

	// The window is exactly full: any ingest evicts.
	res, err := s.Ingest(ctx, "w", [][]core.Unit{{{Item: 1, Prob: 0.9}}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Evicted {
		t.Fatalf("ingest into a full window reported no eviction: %+v", res)
	}
	diff := waitDiff(t, sub)
	if !diff.Fallback || diff.Reason != incmine.ReasonEviction {
		t.Fatalf("diff fallback=%v reason=%q, want a window-eviction rebuild", diff.Fallback, diff.Reason)
	}
	d, _ := s.reg.get("w")
	ndb, _ := d.snapshot()
	cold := directMine(t, "UApriori", ndb, th)
	if diff.Total != cold.Len() {
		t.Fatalf("post-eviction diff total = %d, cold mine of the window has %d", diff.Total, cold.Len())
	}
	if st := s.Stats(); st.IncrementalFallbacks == 0 {
		t.Error("incremental_fallbacks = 0 after an eviction rebuild")
	}
}
