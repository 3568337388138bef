package server

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"umine/internal/core"
	"umine/internal/shardrpc"
	"umine/internal/telemetry"
)

// TestStatsPartitionSnapshotConsistent documents the /stats snapshot
// invariant: the partition counters are written in one critical section
// per completed sharded mine and read in one critical section per
// snapshot, so no scrape can ever observe partitions_mined ahead of (or
// behind) sharded_mines × K — even while mines complete concurrently.
func TestStatsPartitionSnapshotConsistent(t *testing.T) {
	const k = 4
	db := shardTestDB()
	s := New(Config{DefaultWorkers: 2})
	if _, err := s.RegisterDatabase("d", db, RegisterOptions{Shards: k}); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	// Scrapers: every observed snapshot must satisfy the invariant exactly.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				st := s.Stats()
				if st.PartitionsMined != st.ShardedMines*k {
					t.Errorf("torn snapshot: partitions_mined=%d, sharded_mines=%d × %d",
						st.PartitionsMined, st.ShardedMines, k)
					return
				}
				if st.ShardedMines > 0 && st.Phase2Candidates == 0 {
					t.Error("torn snapshot: sharded mine counted before its candidates")
					return
				}
			}
		}()
	}

	// Concurrent no-cache sharded mines keep the counters moving.
	var mines sync.WaitGroup
	for g := 0; g < 3; g++ {
		mines.Add(1)
		go func() {
			defer mines.Done()
			for i := 0; i < 5; i++ {
				_, err := s.Mine(context.Background(), MineRequest{
					Dataset: "d", Algorithm: "UApriori",
					Thresholds: core.Thresholds{MinESup: 0.05},
					NoCache:    true,
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	mines.Wait()
	close(done)
	wg.Wait()

	st := s.Stats()
	if st.ShardedMines != 15 || st.PartitionsMined != 15*k {
		t.Fatalf("final counters: sharded=%d partitions=%d, want 15/%d", st.ShardedMines, st.PartitionsMined, 15*k)
	}
}

// promLine matches one exposition sample: name{labels} value.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+$`)

// TestMetricsEndpoint: /metrics appears when a telemetry hub is
// configured, renders parseable Prometheus text, and its counters and
// per-phase histograms move with traffic, failed mines included — with
// phase 1 mined in process and over a shard pool alike.
func TestMetricsEndpoint(t *testing.T) {
	t.Run("sharded", func(t *testing.T) { testMetricsEndpoint(t, nil) })
	t.Run("shardrpc", func(t *testing.T) { testMetricsEndpoint(t, startShardCluster(t, 2)) })
}

func testMetricsEndpoint(t *testing.T, pool *shardrpc.Pool) {
	db := shardTestDB()
	hub := telemetry.NewHub(telemetry.HubConfig{TraceCapacity: 8})
	s := New(Config{DefaultWorkers: 2, Telemetry: hub, ShardPool: pool})
	if _, err := s.RegisterDatabase("d", db, RegisterOptions{Shards: 2}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// mine reads the whole response, so the client reuses the connection
	// and the server reads the next request only after this handler (and
	// its deferred trace Finish) returned. It requires the status want.
	mine := func(body string, want int) http.Header {
		t.Helper()
		res, err := ts.Client().Post(ts.URL+"/mine", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		if _, err := io.Copy(io.Discard, res.Body); err != nil {
			t.Fatal(err)
		}
		if res.StatusCode != want {
			t.Fatalf("mine: HTTP %d, want %d", res.StatusCode, want)
		}
		return res.Header
	}
	// First mine through the cache (a miss — the trace shows the lookup).
	traceID := mine(`{"dataset":"d","algorithm":"UApriori","min_esup":0.05}`, http.StatusOK).Get("X-Umine-Trace-Id")
	if traceID == "" {
		t.Fatal("mine response missing X-Umine-Trace-Id")
	}

	scrape := func() map[string]string {
		t.Helper()
		res, err := ts.Client().Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		if res.StatusCode != 200 {
			t.Fatalf("/metrics: HTTP %d", res.StatusCode)
		}
		if ct := res.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
			t.Fatalf("/metrics content type %q", ct)
		}
		samples := map[string]string{}
		sc := bufio.NewScanner(res.Body)
		for sc.Scan() {
			line := sc.Text()
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			if !promLine.MatchString(line) {
				t.Fatalf("malformed exposition line: %q", line)
			}
			i := strings.LastIndexByte(line, ' ')
			samples[line[:i]] = line[i+1:]
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		return samples
	}

	m1 := scrape()
	for _, want := range []string{
		"umine_requests_total",
		"umine_sharded_mines_total",
		`umine_cache_requests_total{outcome="miss"}`,
		"umine_in_flight",
		"umine_datasets",
		"umine_mine_duration_seconds_count",
		"umine_shard_phase1_duration_seconds_count",
		"umine_merge_duration_seconds_count",
		"umine_phase2_duration_seconds_count",
		`umine_mine_duration_seconds_bucket{le="+Inf"}`,
	} {
		if _, ok := m1[want]; !ok {
			t.Errorf("/metrics missing %s", want)
		}
	}
	if m1["umine_requests_total"] != "1" || m1["umine_sharded_mines_total"] != "1" {
		t.Errorf("after one mine: requests=%s sharded=%s, want 1/1",
			m1["umine_requests_total"], m1["umine_sharded_mines_total"])
	}
	if m1["umine_shard_phase1_duration_seconds_count"] != "2" {
		t.Fatalf("phase-1 histogram count = %s, want 2 (one per shard)",
			m1["umine_shard_phase1_duration_seconds_count"])
	}

	// Histogram counts are monotonic across scrapes under load.
	mine(`{"dataset":"d","algorithm":"UApriori","min_esup":0.05,"no_cache":true}`, http.StatusOK)
	m2 := scrape()
	if m2["umine_mine_duration_seconds_count"] != "2" || m2["umine_requests_total"] != "2" {
		t.Errorf("after two mines: count=%s requests=%s, want 2/2",
			m2["umine_mine_duration_seconds_count"], m2["umine_requests_total"])
	}

	// A failed mine is one more latency observation and one more error, so
	// the mine-route burn rate (slow plus failed over all requests) sees it.
	mine(`{"dataset":"nope","algorithm":"UApriori","min_esup":0.05}`, http.StatusNotFound)
	m3 := scrape()
	for _, name := range []string{"umine_mine_duration_seconds_count", "umine_errors_total"} {
		before, err1 := strconv.ParseFloat(m2[name], 64)
		after, err2 := strconv.ParseFloat(m3[name], 64)
		if err1 != nil || err2 != nil || after != before+1 {
			t.Errorf("failed mine: %s %s -> %s, want +1", name, m2[name], m3[name])
		}
	}

	// The mine's trace is retained and shows the coordinator phases.
	res2, err := ts.Client().Get(ts.URL + "/debug/traces/" + traceID)
	if err != nil {
		t.Fatal(err)
	}
	defer res2.Body.Close()
	if res2.StatusCode != 200 {
		t.Fatalf("/debug/traces/{id}: HTTP %d", res2.StatusCode)
	}
	var td telemetry.TraceData
	if err := json.NewDecoder(res2.Body).Decode(&td); err != nil {
		t.Fatal(err)
	}
	if td.Name != "POST /mine" {
		t.Errorf("trace name %q", td.Name)
	}
	spans := []string{"parse", "cache lookup", "mine", "phase1", "shard 0", "shard 1", "merge", "phase2"}
	if pool != nil {
		// Phase 1 went over the wire: each shard's RPC attempt is a span.
		spans = append(spans, "attempt")
	}
	for _, span := range spans {
		if _, ok := td.Root.Find(span); !ok {
			t.Errorf("trace missing %q span:\n%+v", span, td.Root)
		}
	}
}

// TestMetricsAbsentWithoutHub: without a telemetry hub the observability
// endpoints simply do not exist.
func TestMetricsAbsentWithoutHub(t *testing.T) {
	s := newTestServer(t, testDB(t))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, path := range []string{"/metrics", "/debug/traces"} {
		res, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode != 404 {
			t.Errorf("%s without hub: HTTP %d, want 404", path, res.StatusCode)
		}
	}
}
