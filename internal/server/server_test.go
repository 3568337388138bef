package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"umine/internal/core"
	"umine/internal/core/coretest"
)

func TestRegistryBasics(t *testing.T) {
	s := New(Config{})
	db := testDB(t)
	info, err := s.RegisterDatabase("a", db, RegisterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Name != "a" || info.Version != 0 || info.NumTrans != db.N() {
		t.Fatalf("info %+v", info)
	}
	if _, err := s.RegisterDatabase("a", db, RegisterOptions{}); !errors.Is(err, ErrDuplicateDataset) {
		t.Fatalf("duplicate registration: err=%v, want ErrDuplicateDataset", err)
	}
	if _, err := s.Mine(context.Background(), MineRequest{Dataset: "nope", Algorithm: "UApriori", Thresholds: core.Thresholds{MinESup: 0.2}}); !errors.Is(err, ErrUnknownDataset) {
		t.Fatalf("unknown dataset: err=%v, want ErrUnknownDataset", err)
	}
	if _, err := s.RegisterProfile("p", "gazelle", 0.005, 1, RegisterOptions{}); err != nil {
		t.Fatal(err)
	}
	if ds := s.Datasets(); len(ds) != 2 || ds[0].Name != "a" || ds[1].Name != "p" {
		t.Fatalf("Datasets() = %+v", ds)
	}
}

func TestRegisterUncertain(t *testing.T) {
	s := New(Config{})
	text := "0:0.9 2:0.5\n1:0.8\n\n0:0.4 1:0.6 2:0.7\n"
	info, err := s.RegisterUncertain("u", strings.NewReader(text), RegisterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if info.NumItems != 3 {
		t.Fatalf("NumItems %d, want 3", info.NumItems)
	}
}

// TestWindowedRetention: after registration and after every ingest, a
// windowed dataset's snapshot is exactly the last Size transactions of seed +
// ingested, and /mine over it is byte-identical to a direct mine of that
// reference database. Covers a seed longer and shorter than the window, and
// batches that fit, cross the window edge, and exceed the window outright.
func TestWindowedRetention(t *testing.T) {
	const size = 10
	queries := []struct {
		alg string
		th  core.Thresholds
	}{
		{"UApriori", core.Thresholds{MinESup: 0.1}},
		{"DCB", core.Thresholds{MinSup: 0.2, PFT: 0.6}},
	}
	for _, seedN := range []int{30, 4} {
		t.Run(fmt.Sprintf("seed%d", seedN), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(seedN)))
			seed := coretest.RandomDB(rng, seedN, 8, 0.6)
			s := New(Config{})
			info, err := s.RegisterDatabase("w", seed, RegisterOptions{Window: &WindowOptions{Size: size}})
			if err != nil {
				t.Fatal(err)
			}
			if !info.Windowed || info.WindowSize != size || info.NumTrans != min(seedN, size) {
				t.Fatalf("info %+v, want windowed size %d with %d transactions", info, size, min(seedN, size))
			}
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()

			all := seed.Transactions()
			numItems := 0
			check := func(stage string) {
				t.Helper()
				d, _ := s.reg.get("w")
				snap := d.ledgerSnapshot().DB
				ref := coretest.FromTransactions("ref", all[max(0, len(all)-size):])
				if snap.N() != ref.N() {
					t.Fatalf("%s: snapshot holds %d transactions, want %d", stage, snap.N(), ref.N())
				}
				for j := 0; j < ref.N(); j++ {
					got, want := snap.Tx(j), ref.Tx(j)
					if !slices.Equal(got.Items, want.Items) || !slices.Equal(got.Probs, want.Probs) {
						t.Fatalf("%s: transaction %d = %v, want %v", stage, j, got, want)
					}
				}
				if snap.NumItems < numItems {
					t.Fatalf("%s: NumItems shrank from %d to %d", stage, numItems, snap.NumItems)
				}
				numItems = snap.NumItems
				for _, q := range queries {
					resp, body := post(t, ts.URL+"/mine", mineRequestJSON{Dataset: "w", Algorithm: q.alg, Thresholds: q.th})
					if resp.StatusCode != http.StatusOK {
						t.Fatalf("%s: /mine %s: %d %s", stage, q.alg, resp.StatusCode, body)
					}
					if want := marshal(t, directMine(t, q.alg, ref, q.th)); !bytes.Equal(body, want) {
						t.Fatalf("%s: /mine %s differs from a direct mine of the reference window\ngot:  %s\nwant: %s", stage, q.alg, body, want)
					}
				}
			}
			check("register")

			// The last batch only uses items 0..2, so the window ends up
			// without the seed's higher items: the universe must not shrink.
			for _, b := range []struct {
				name     string
				n, items int
			}{{"fits", 3, 8}, {"crosses", 5, 8}, {"exceeds", size + 4, 3}} {
				raw := make([][]core.Unit, b.n)
				for i := range raw {
					raw[i] = []core.Unit{
						{Item: core.Item(rng.Intn(b.items)), Prob: 0.5 + 0.5*rng.Float64()},
						{Item: core.Item(rng.Intn(b.items)), Prob: 0.5 + 0.5*rng.Float64()},
					}
				}
				before := min(len(all), size)
				for _, units := range raw {
					tx, err := core.NormalizeTransaction(units)
					if err != nil {
						t.Fatal(err)
					}
					all = append(all, tx)
				}
				res, err := s.Ingest(context.Background(), "w", raw)
				if err != nil {
					t.Fatal(err)
				}
				if wantEvicted := before+b.n > size; res.Evicted != wantEvicted || res.Added != b.n || res.N != min(len(all), size) {
					t.Fatalf("%s: ingest result %+v, want evicted=%v added=%d n=%d", b.name, res, wantEvicted, b.n, min(len(all), size))
				}
				check(b.name)
			}
		})
	}
}

// TestWindowedConcurrency hammers a windowed dataset with concurrent
// ingests (evicting past the window), queries and metadata reads; run under
// -race this is the regression test for the window/query data races.
func TestWindowedConcurrency(t *testing.T) {
	s := New(Config{})
	_, err := s.RegisterDatabase("w", coretest.RandomDB(rand.New(rand.NewSource(11)), 20, 6, 0.7),
		RegisterOptions{Window: &WindowOptions{Size: 24}})
	if err != nil {
		t.Fatal(err)
	}
	iters := 30
	if testing.Short() {
		iters = 10
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 4)
	report := func(err error) {
		select {
		case errCh <- err:
		default:
		}
	}
	wg.Add(3)
	go func() { // ingester: every push past the window evicts
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < iters; i++ {
			tx := []core.Unit{{Item: core.Item(rng.Intn(6)), Prob: 0.5 + 0.5*rng.Float64()}}
			if _, err := s.Ingest(context.Background(), "w", [][]core.Unit{tx}); err != nil {
				report(err)
				return
			}
		}
	}()
	go func() { // miner: queries race against snapshot swaps
		defer wg.Done()
		for i := 0; i < iters; i++ {
			_, err := s.Mine(context.Background(), MineRequest{
				Dataset:   "w",
				Algorithm: "UH-Mine",
				Thresholds: core.Thresholds{
					MinESup: 0.05 + 0.01*float64(i%5),
				},
			})
			if err != nil {
				report(err)
				return
			}
		}
	}()
	go func() { // reader: metadata
		defer wg.Done()
		for i := 0; i < iters; i++ {
			s.Datasets()
		}
	}()
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
}

// TestMineTimeout: a request that cannot get an in-flight slot before its
// timeout fails with DeadlineExceeded instead of queueing forever.
func TestMineTimeout(t *testing.T) {
	db := testDB(t)
	s := New(Config{MaxInFlight: 1})
	if _, err := s.RegisterDatabase("d", db, RegisterOptions{}); err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	entered := make(chan struct{})
	base := s.mineFn
	s.mineFn = func(ctx context.Context, alg string, db *core.Database, th core.Thresholds, opts core.Options) (*core.ResultSet, error) {
		close(entered)
		<-release
		return base(ctx, alg, db, th, opts)
	}
	done := make(chan error, 1)
	go func() {
		_, err := s.Mine(context.Background(), MineRequest{Dataset: "d", Algorithm: "UApriori", Thresholds: core.Thresholds{MinESup: 0.1}})
		done <- err
	}()
	<-entered
	// Different thresholds → no coalescing; the single slot is taken.
	_, err := s.Mine(context.Background(), MineRequest{
		Dataset:    "d",
		Algorithm:  "UApriori",
		Thresholds: core.Thresholds{MinESup: 0.2},
		Timeout:    20 * time.Millisecond,
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("queued request: err=%v, want DeadlineExceeded", err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestNonWindowedIngestKeepsOldSnapshots: an ingest must not mutate the
// database an in-progress query is mining (copy-on-append).
func TestNonWindowedIngestKeepsOldSnapshots(t *testing.T) {
	db := testDB(t)
	s := New(Config{})
	if _, err := s.RegisterDatabase("d", db, RegisterOptions{}); err != nil {
		t.Fatal(err)
	}
	d, _ := s.reg.get("d")
	s0 := d.ledgerSnapshot()
	before, v0 := s0.DB, s0.Version
	n0 := before.N()
	if _, err := s.Ingest(context.Background(), "d", [][]core.Unit{{{Item: 0, Prob: 1}}}); err != nil {
		t.Fatal(err)
	}
	if before.N() != n0 {
		t.Fatal("ingest mutated a held snapshot")
	}
	s1 := d.ledgerSnapshot()
	if s1.Version != v0+1 || s1.DB.N() != n0+1 {
		t.Fatalf("post-ingest snapshot N=%d version=%d, want N=%d version=%d", s1.DB.N(), s1.Version, n0+1, v0+1)
	}
}

// TestStatsCounters sanity-checks the counter wiring end to end.
func TestStatsCounters(t *testing.T) {
	db := testDB(t)
	s := newTestServer(t, db)
	ctx := context.Background()
	th := core.Thresholds{MinESup: 0.1}
	req := MineRequest{Dataset: "d", Algorithm: "UApriori", Thresholds: th}
	for i := 0; i < 3; i++ {
		if _, err := s.Mine(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Mine(ctx, MineRequest{Dataset: "d", Algorithm: "UApriori", Thresholds: th, NoCache: true}); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	want := "requests=4 misses=1 hits=2 uncached=1 datasets=1"
	got := fmt.Sprintf("requests=%d misses=%d hits=%d uncached=%d datasets=%d",
		st.Requests, st.CacheMisses, st.CacheHits, st.Uncached, st.Datasets)
	if got != want {
		t.Errorf("stats %s, want %s", got, want)
	}
	if st.CacheEntries == 0 {
		t.Error("cache entries not counted")
	}
}

// TestStatsBytesResident: /stats (and DatasetInfo) must report each
// dataset's arena footprint, totalled across the registry.
func TestStatsBytesResident(t *testing.T) {
	s := New(Config{})
	db := testDB(t)
	info, err := s.RegisterDatabase("a", db, RegisterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if info.BytesResident != db.BytesResident() || info.BytesResident <= 0 {
		t.Fatalf("DatasetInfo.BytesResident = %d, want %d", info.BytesResident, db.BytesResident())
	}
	if _, err := s.RegisterDatabase("b", coretest.PaperDB(), RegisterOptions{}); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if len(st.DatasetBytesResident) != 2 {
		t.Fatalf("per-dataset map %v, want 2 entries", st.DatasetBytesResident)
	}
	if st.BytesResident != st.DatasetBytesResident["a"]+st.DatasetBytesResident["b"] {
		t.Fatalf("total %d does not sum the per-dataset entries %v", st.BytesResident, st.DatasetBytesResident)
	}
	// Ingest grows the arena and therefore the reported footprint.
	before := st.DatasetBytesResident["a"]
	if _, err := s.Ingest(context.Background(), "a", [][]core.Unit{{{Item: 0, Prob: 0.5}, {Item: 2, Prob: 0.25}}}); err != nil {
		t.Fatal(err)
	}
	if after := s.Stats().DatasetBytesResident["a"]; after <= before {
		t.Fatalf("bytes_resident did not grow on ingest: %d -> %d", before, after)
	}
}
