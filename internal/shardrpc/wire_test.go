package shardrpc

import (
	"encoding/json"
	"testing"

	"umine/internal/core"
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
