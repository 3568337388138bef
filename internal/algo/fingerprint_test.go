package algo

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"umine/internal/core"
	"umine/internal/core/coretest"
)

// answerFingerprints pins every registry entry's answer and work counters
// on one fixed database: the SHA-256 (first 16 hex digits) of the
// ResultSet's WriteJSON bytes, its MiningStats and the PhaseDone event's
// Stats, per entry and configuration. Any change that moves a result bit
// or a counter of any miner changes a digest. To re-pin after an
// intentional change, run with -v and copy the logged digests.
var answerFingerprints = map[string]string{
	"UApriori/w1":   "0a632c3494136f7a",
	"UApriori/w4":   "0a632c3494136f7a",
	"UApriori/k3":   "c50f6e85f97a1bd0",
	"UFP-growth/w1": "73c6de9ae0f9b923",
	"UFP-growth/w4": "73c6de9ae0f9b923",
	"UFP-growth/k3": "60b7ea25b8065a18",
	"UH-Mine/w1":    "b913f697620a3e7a",
	"UH-Mine/w4":    "b913f697620a3e7a",
	"UH-Mine/k3":    "bebe758ac7878692",
	"DPNB/w1":       "d2c0dfe21bd3bcf2",
	"DPNB/w4":       "d2c0dfe21bd3bcf2",
	"DPNB/k3":       "4386adebcd4256a1",
	"DPB/w1":        "a8dc80d0fcd18746",
	"DPB/w4":        "a8dc80d0fcd18746",
	"DPB/k3":        "af6bc1fcbcd9a8a1",
	"DCNB/w1":       "34482d9d4abb7320",
	"DCNB/w4":       "34482d9d4abb7320",
	"DCNB/k3":       "2b48e09afbbc9357",
	"DCB/w1":        "ecd01169b01daeab",
	"DCB/w4":        "ecd01169b01daeab",
	"DCB/k3":        "a3ec1edc17c5d7db",
	"PDUApriori/w1": "6ee50d2118645911",
	"PDUApriori/w4": "6ee50d2118645911",
	"PDUApriori/k3": "c7c61fb1b4da8079",
	"NDUApriori/w1": "346eec8cd344e257",
	"NDUApriori/w4": "346eec8cd344e257",
	"NDUApriori/k3": "672e68199865569a",
	"NDUH-Mine/w1":  "9711c357a4f492ce",
	"NDUH-Mine/w4":  "9711c357a4f492ce",
	"NDUH-Mine/k3":  "e59c81a0f9bf3f9d",
	"MCSampling/w1": "7f4df2c0922445ea",
	"MCSampling/w4": "7f4df2c0922445ea",
	"MCSampling/k3": "7f4df2c0922445ea",
}

// TestAnswerFingerprints mines every registry entry at its semantics'
// thresholds single-shot at Workers 1 and 4 and partitioned at K=3 (a
// non-partitionable entry mines single-shot there), and compares each
// run's digest with answerFingerprints.
func TestAnswerFingerprints(t *testing.T) {
	// Dense rows over items 0–9, then sparse rows over items 0–15: items
	// 10–15 fall below the expected-support floors and the rest do not.
	rng := rand.New(rand.NewSource(24))
	dense, sparse := coretest.RandomDB(rng, 900, 10, 0.8), coretest.RandomDB(rng, 300, 16, 0.3)
	db := coretest.FromTransactions("fingerprint", append(dense.Transactions(), sparse.Transactions()...))
	configs := []struct {
		label string
		opts  core.Options
	}{
		{"w1", core.Options{Workers: 1}},
		{"w4", core.Options{Workers: 4}},
		{"k3", core.Options{Workers: 2, Partitions: 3}},
	}
	for _, name := range Names() {
		for _, c := range configs {
			var mu sync.Mutex
			var done []core.MiningStats
			opts := c.opts
			opts.Progress = func(ev core.ProgressEvent) {
				if ev.Phase == core.PhaseDone {
					mu.Lock()
					done = append(done, ev.Stats)
					mu.Unlock()
				}
			}
			m := MustNewWith(name, opts)
			th := core.Thresholds{MinESup: 0.04}
			if m.Semantics() == core.Probabilistic {
				th = core.Thresholds{MinSup: 0.04, PFT: 0.7}
			}
			rs, err := m.Mine(context.Background(), db, th)
			if err != nil {
				t.Fatalf("%s %s: %v", name, c.label, err)
			}
			var buf bytes.Buffer
			if err := rs.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&buf, "stats %+v\ndone %+v\n", rs.Stats, done)
			sum := sha256.Sum256(buf.Bytes())
			key := name + "/" + c.label
			got := hex.EncodeToString(sum[:8])
			t.Logf("%q: %q, // %d results, %+v", key, got, rs.Len(), rs.Stats)
			if want := answerFingerprints[key]; got != want {
				t.Errorf("%s: fingerprint %s, want %s", key, got, want)
			}
		}
	}
}
