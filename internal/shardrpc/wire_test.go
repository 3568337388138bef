package shardrpc

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"umine/internal/core"
	"umine/internal/dataset"
	"umine/internal/partition"
)

// TestMineShardRequestEncoding pins the mine request's wire bytes: the
// thresholds travel as core.Thresholds through its JSON tags, and a shard
// built from an older encoding must keep reading them.
func TestMineShardRequestEncoding(t *testing.T) {
	cases := []struct {
		th   core.Thresholds
		want string
	}{
		{core.Thresholds{MinESup: 0.1},
			`{"dataset":"d","version":3,"lo":0,"hi":64,"algorithm":"UApriori","thresholds":{"min_esup":0.1},"workers":2,"trace_id":"abc"}`},
		{core.Thresholds{MinSup: 0.2, PFT: 0.7},
			`{"dataset":"d","version":3,"lo":0,"hi":64,"algorithm":"UApriori","thresholds":{"min_sup":0.2,"pft":0.7},"workers":2,"trace_id":"abc"}`},
		{core.Thresholds{MinESup: 1.0 / 3, MinSup: 0.25, PFT: 0.9},
			`{"dataset":"d","version":3,"lo":0,"hi":64,"algorithm":"UApriori","thresholds":{"min_esup":0.3333333333333333,"min_sup":0.25,"pft":0.9},"workers":2,"trace_id":"abc"}`},
		{core.Thresholds{},
			`{"dataset":"d","version":3,"lo":0,"hi":64,"algorithm":"UApriori","thresholds":{},"workers":2,"trace_id":"abc"}`},
	}
	for _, c := range cases {
		req := MineShardRequest{Dataset: "d", Version: 3, Hi: 64, Algorithm: "UApriori", Th: c.th, Workers: 2, TraceID: "abc"}
		got, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != c.want {
			t.Errorf("encoding drifted\ngot:  %s\nwant: %s", got, c.want)
		}
		var back MineShardRequest
		if err := json.Unmarshal(got, &back); err != nil || back.Th != c.th {
			t.Errorf("round trip: %+v, %v; want %+v", back.Th, err, c.th)
		}
	}
}

// legacyStatsBody is a shard response in the format shards wrote when the
// counters had a wire type of their own (every key omitempty,
// peak_tracked_bytes sixth): all ten counters nonzero.
const legacyStatsBody = `{"itemsets":[[1,2]],"stats":{"candidates_generated":1,"candidates_pruned":2,"chernoff_pruned":3,"exact_evaluations":4,"db_scans":5,"peak_tracked_bytes":6,"transactions_scanned":7,"postings_probed":8,"horizontal_plans":9,"vertical_plans":10}}`

// TestMineShardResponseLegacyStats: the older counter encoding decodes to
// the same values.
func TestMineShardResponseLegacyStats(t *testing.T) {
	var resp MineShardResponse
	if err := json.Unmarshal([]byte(legacyStatsBody), &resp); err != nil {
		t.Fatal(err)
	}
	want := core.MiningStats{
		CandidatesGenerated: 1, CandidatesPruned: 2, ChernoffPruned: 3, ExactEvaluations: 4, DBScans: 5,
		PeakTrackedBytes: 6, TransactionsScanned: 7, PostingsProbed: 8, HorizontalPlans: 9, VerticalPlans: 10,
	}
	if resp.Stats != want {
		t.Errorf("decoded %+v, want %+v", resp.Stats, want)
	}
}

// FuzzMineShardResponse feeds arbitrary bytes through the coordinator's
// response decoding: JSON into MineShardResponse, then itemset validation.
// Neither may panic, every accepted itemset must be canonical (non-empty,
// strictly ascending), and the counters must survive a re-encode.
func FuzzMineShardResponse(f *testing.F) {
	f.Add([]byte(legacyStatsBody))
	f.Add([]byte(""))
	f.Add([]byte(`{"itemsets":[[3,1]],"stats":{}}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var resp MineShardResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return
		}
		if sets, err := partition.DecodeItemsets(resp.Itemsets); err == nil {
			for i, s := range sets {
				if len(s) == 0 {
					t.Fatalf("accepted empty itemset %d", i)
				}
				for j := 1; j < len(s); j++ {
					if s[j] <= s[j-1] {
						t.Fatalf("accepted non-canonical itemset %d: %v", i, s)
					}
				}
			}
		}
		raw, err := json.Marshal(resp)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		var back MineShardResponse
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatalf("decode of re-encoded body: %v", err)
		}
		if back.Stats != resp.Stats {
			t.Fatalf("stats changed in round trip: %+v -> %+v", resp.Stats, back.Stats)
		}
	})
}

// TestPushRejectsOversizedUniverse: a push declaring more than
// dataset.MaxItems items is refused with 400 and installs nothing, so the
// shard never widens a slice's per-item indexes to an unchecked size.
func TestPushRejectsOversizedUniverse(t *testing.T) {
	ss := NewShardServer(ShardConfig{})
	ts := httptest.NewServer(ss.Handler())
	defer ts.Close()
	body, err := json.Marshal(PushRequest{Dataset: "d", Version: 1, Hi: 1, NumItems: dataset.MaxItems + 1, Transactions: []string{"0:0.5"}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+pathPush, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("push with NumItems %d: HTTP %d, want 400", dataset.MaxItems+1, resp.StatusCode)
	}
	if st := ss.Stats(); st.Pushes != 0 || len(st.Datasets) != 0 {
		t.Fatalf("rejected push was installed: %+v", st)
	}
}

// FuzzDecodeTransactions feeds arbitrary lines through the push decoder,
// with and without a base slice to extend. It must never panic; an accepted
// push holds the base plus one transaction per line, every item below
// dataset.MaxItems.
func FuzzDecodeTransactions(f *testing.F) {
	f.Add("0:0.5 3:1\n2:0.25", false)
	f.Add("", true)
	f.Add("1:0.5\n\n4:1", true)
	f.Add("1048576:0.5", false)
	f.Add("4294967295:1", true)
	f.Add("2:0.5 2:0.5", false)
	f.Add("# comment", true)
	base := core.MustNewDatabase("base", [][]core.Unit{
		{{Item: 0, Prob: 0.5}, {Item: 7, Prob: 1}},
		{},
		{{Item: 3, Prob: 0.25}},
	})
	f.Fuzz(func(t *testing.T, input string, withBase bool) {
		lines := strings.Split(input, "\n")
		var b *core.Database
		if withBase {
			b = base
		}
		db, err := decodeTransactions("fuzz", b, lines)
		if err != nil {
			return
		}
		want := len(lines)
		if b != nil {
			want += b.N()
		}
		if db.N() != want {
			t.Fatalf("decoded %d transactions, want %d", db.N(), want)
		}
		for i := 0; i < db.N(); i++ {
			for _, it := range db.Tx(i).Items {
				if int(it) >= dataset.MaxItems {
					t.Fatalf("transaction %d holds item %d, not below %d", i, it, dataset.MaxItems)
				}
			}
		}
	})
}

// TestEncodeTransactionsMatchesWriteUncertain pins the one item:prob line
// format at its extremes — probabilities 1, the smallest subnormal, 0.1 and
// the largest float64 below 1, item ids up to dataset.MaxItems−1, empty
// transactions: push lines are WriteUncertain's lines byte for byte, and
// the shard's decode of them hashes like the coordinator's arena.
func TestEncodeTransactionsMatchesWriteUncertain(t *testing.T) {
	probs := []float64{1, 5e-324, 0.1, 1 - 0x1p-53}
	rng := rand.New(rand.NewSource(21))
	for round := 0; round < 20; round++ {
		raw := make([][]core.Unit, 1+rng.Intn(30))
		for i := range raw {
			seen := map[core.Item]bool{}
			for u := rng.Intn(6); u > 0; u-- {
				it := core.Item(dataset.MaxItems - 1 - rng.Intn(3))
				if rng.Intn(2) == 0 {
					it = core.Item(rng.Intn(dataset.MaxItems))
				}
				if !seen[it] {
					seen[it] = true
					raw[i] = append(raw[i], core.Unit{Item: it, Prob: probs[rng.Intn(len(probs))]})
				}
			}
		}
		db := core.MustNewDatabase("lines", raw)
		var buf bytes.Buffer
		if err := dataset.WriteUncertain(&buf, db); err != nil {
			t.Fatal(err)
		}
		want := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
		got := encodeTransactions(db, 0, db.N())
		if len(got) != len(want) {
			t.Fatalf("round %d: %d push lines, WriteUncertain wrote %d", round, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("round %d line %d:\npush:  %q\nwrite: %q", round, i, got[i], want[i])
			}
		}
		back, err := decodeTransactions("lines", nil, got)
		if err != nil {
			t.Fatalf("round %d: decoding push lines: %v", round, err)
		}
		if back.N() != db.N() || TxHash(back, back.N()) != TxHash(db, db.N()) {
			t.Fatalf("round %d: decoded %d transactions with hash %x, want %d with %x",
				round, back.N(), TxHash(back, back.N()), db.N(), TxHash(db, db.N()))
		}
	}
}
