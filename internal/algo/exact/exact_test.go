package exact_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"umine/internal/algo"
	"umine/internal/core"
	"umine/internal/core/coretest"
	"umine/internal/dataset"
	"umine/internal/prob"
)

// allMiners builds the four exact miners from the registry.
func allMiners() []core.Miner {
	var out []core.Miner
	for _, name := range []string{"DPNB", "DPB", "DCNB", "DCB"} {
		out = append(out, newMiner(name))
	}
	return out
}

func newMiner(name string) core.Miner { return algo.MustNewWith(name, core.Options{}) }

func TestNames(t *testing.T) {
	want := map[string]bool{"DPNB": true, "DPB": true, "DCNB": true, "DCB": true}
	for _, m := range allMiners() {
		if !want[m.Name()] {
			t.Errorf("unexpected name %q", m.Name())
		}
		delete(want, m.Name())
	}
	if len(want) != 0 {
		t.Errorf("missing names: %v", want)
	}
}

func TestPaperExample2(t *testing.T) {
	// Example 2: with min_sup = 0.5 and pft = 0.7 on a 4-transaction
	// database where sup(A) has the Table 2 distribution, {A} is a
	// probabilistic frequent itemset. The paper's Table 2 distribution
	// {0.1, 0.18, 0.4, 0.32} arises from per-transaction probabilities
	// that we reverse-engineer as (0.8, 0.8, 0.5) over three transactions
	// containing A — but Table 2's numbers are their own example; here we
	// verify our miners reproduce the tail logic on the Table 1 database.
	db := coretest.PaperDB()
	th := core.Thresholds{MinSup: 0.5, PFT: 0.7}
	for _, m := range allMiners() {
		rs, err := m.Mine(context.Background(), db, th)
		if err != nil {
			t.Fatal(err)
		}
		// Exact tail for A over (0.8, 0.8, 0.5): Pr{sup ≥ 2} =
		// 0.8·0.8·0.5 + 0.8·0.8·0.5 ... compute via reference.
		wantFP := coretest.FreqProb(db, core.NewItemset(coretest.A), 2)
		r, ok := rs.Lookup(core.NewItemset(coretest.A))
		if wantFP > 0.7 {
			if !ok {
				t.Fatalf("%s: {A} missing (exact fp %v)", m.Name(), wantFP)
			}
			if math.Abs(r.FreqProb-wantFP) > 1e-9 {
				t.Fatalf("%s: fp(A) = %v, want %v", m.Name(), r.FreqProb, wantFP)
			}
		} else if ok {
			t.Fatalf("%s: {A} reported with exact fp %v ≤ 0.7", m.Name(), wantFP)
		}
	}
}

func TestAgainstBruteForceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(501))
	for trial := 0; trial < 30; trial++ {
		db := coretest.RandomDB(rng, 8+rng.Intn(15), 5, 0.4+0.4*rng.Float64())
		minSup := 0.1 + 0.4*rng.Float64()
		pft := 0.1 + 0.8*rng.Float64()
		want := coretest.BruteForceProbabilistic(db, minSup, pft)
		for _, m := range allMiners() {
			rs, err := m.Mine(context.Background(), db, core.Thresholds{MinSup: minSup, PFT: pft})
			if err != nil {
				t.Fatal(err)
			}
			if rs.Len() != len(want) {
				t.Fatalf("%s trial %d: got %d itemsets, want %d (min_sup=%v pft=%v)",
					m.Name(), trial, rs.Len(), len(want), minSup, pft)
			}
			for i := range want {
				if !rs.Results[i].Itemset.Equal(want[i].Itemset) {
					t.Fatalf("%s: itemset %d: %v vs %v", m.Name(), i, rs.Results[i].Itemset, want[i].Itemset)
				}
				if math.Abs(rs.Results[i].FreqProb-want[i].FreqProb) > 1e-9 {
					t.Fatalf("%s: %v fp %v vs %v", m.Name(), want[i].Itemset,
						rs.Results[i].FreqProb, want[i].FreqProb)
				}
			}
		}
	}
}

func TestDPAndDCAgreeOnLargerData(t *testing.T) {
	rng := rand.New(rand.NewSource(502))
	db := coretest.RandomDB(rng, 300, 8, 0.4)
	th := core.Thresholds{MinSup: 0.15, PFT: 0.8}
	dp, err := newMiner("DPNB").Mine(context.Background(), db, th)
	if err != nil {
		t.Fatal(err)
	}
	dc, err := newMiner("DCNB").Mine(context.Background(), db, th)
	if err != nil {
		t.Fatal(err)
	}
	if dp.Len() != dc.Len() {
		t.Fatalf("DP found %d, DC found %d", dp.Len(), dc.Len())
	}
	if dp.Len() == 0 {
		t.Fatal("empty result set makes the test vacuous; lower min_sup")
	}
	for i := range dp.Results {
		if !dp.Results[i].Itemset.Equal(dc.Results[i].Itemset) {
			t.Fatalf("itemset %d differs", i)
		}
		if math.Abs(dp.Results[i].FreqProb-dc.Results[i].FreqProb) > 1e-7 {
			t.Fatalf("%v: DP fp %v vs DC fp %v", dp.Results[i].Itemset,
				dp.Results[i].FreqProb, dc.Results[i].FreqProb)
		}
	}
}

func TestChernoffVariantsReturnIdenticalResults(t *testing.T) {
	rng := rand.New(rand.NewSource(503))
	for trial := 0; trial < 10; trial++ {
		db := coretest.RandomDB(rng, 60, 7, 0.5)
		th := core.Thresholds{MinSup: 0.3, PFT: 0.85}
		for _, method := range []string{"DP", "DC"} {
			plain, err := newMiner(method+"NB").Mine(context.Background(), db, th)
			if err != nil {
				t.Fatal(err)
			}
			pruned, err := newMiner(method+"B").Mine(context.Background(), db, th)
			if err != nil {
				t.Fatal(err)
			}
			if plain.Len() != pruned.Len() {
				t.Fatalf("%v: %d vs %d itemsets with Chernoff", method, plain.Len(), pruned.Len())
			}
			for i := range plain.Results {
				if !plain.Results[i].Itemset.Equal(pruned.Results[i].Itemset) ||
					math.Abs(plain.Results[i].FreqProb-pruned.Results[i].FreqProb) > 1e-12 {
					t.Fatalf("%v: result %d differs with Chernoff", method, i)
				}
			}
		}
	}
}

func TestChernoffReducesExactEvaluations(t *testing.T) {
	rng := rand.New(rand.NewSource(504))
	db := coretest.RandomDB(rng, 200, 10, 0.3)
	th := core.Thresholds{MinSup: 0.4, PFT: 0.9}
	plain, err := newMiner("DCNB").Mine(context.Background(), db, th)
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := newMiner("DCB").Mine(context.Background(), db, th)
	if err != nil {
		t.Fatal(err)
	}
	if pruned.Stats.ChernoffPruned == 0 {
		t.Fatal("Chernoff pruning never fired on a sparse high-threshold workload")
	}
	if pruned.Stats.ExactEvaluations >= plain.Stats.ExactEvaluations {
		t.Fatalf("Chernoff did not reduce exact evaluations: %d vs %d",
			pruned.Stats.ExactEvaluations, plain.Stats.ExactEvaluations)
	}
}

// TestDPMatchesReferenceDP is the miner-level oracle for the DP kernel:
// every itemset DPNB and DPB report carries exactly the bits of the paper's
// recurrence written out plainly (prob.PBFreqProbDP) over the itemset's
// per-transaction probabilities, and clears PFT. The thresholds span the
// regime where the kernel's early rejection fires on most candidates (the
// cold-exact pair) and where accepted candidates crowd the threshold (a low
// PFT).
func TestDPMatchesReferenceDP(t *testing.T) {
	db := dataset.Accident.GenerateUncertain(0.004, 11)
	for _, th := range []core.Thresholds{
		{MinSup: 0.25, PFT: 0.9},
		{MinSup: 0.2, PFT: 0.7},
		{MinSup: 0.25, PFT: 0.05},
	} {
		msc := th.MinSupCount(db.N())
		for _, m := range []core.Miner{newMiner("DPNB"), newMiner("DPB")} {
			rs, err := m.Mine(context.Background(), db, th)
			if err != nil {
				t.Fatal(err)
			}
			if rs.Len() == 0 {
				t.Fatalf("%s at %+v: no results to check", m.Name(), th)
			}
			for _, r := range rs.Results {
				want := prob.PBFreqProbDP(db.TxProbs(r.Itemset), msc)
				if math.Float64bits(r.FreqProb) != math.Float64bits(want) {
					t.Fatalf("%s at %+v: %v FreqProb %v (%#x) != prob.PBFreqProbDP %v (%#x)",
						m.Name(), th, r.Itemset, r.FreqProb, math.Float64bits(r.FreqProb), want, math.Float64bits(want))
				}
				if r.FreqProb <= th.PFT+core.Eps {
					t.Fatalf("%s at %+v: %v reported with FreqProb %v <= PFT+Eps", m.Name(), th, r.Itemset, r.FreqProb)
				}
			}
		}
	}
}

func TestRejectsBadThresholds(t *testing.T) {
	db := coretest.PaperDB()
	bad := []core.Thresholds{
		{MinSup: 0, PFT: 0.5},
		{MinSup: 0.5, PFT: 0},
		{MinSup: 0.5, PFT: 1},
	}
	for _, m := range allMiners() {
		for _, th := range bad {
			if _, err := m.Mine(context.Background(), db, th); err == nil {
				t.Errorf("%s accepted %+v", m.Name(), th)
			}
		}
	}
}

// BenchmarkAblationChernoff isolates the effect of the Lemma 1 pruning —
// the paper's Figure 5 DPB-vs-DPNB / DCB-vs-DCNB comparison — on one fixed
// workload, reporting the filter rate next to the time.
func BenchmarkAblationChernoff(b *testing.B) {
	db := dataset.Accident.GenerateUncertain(0.001, 42)
	th := core.Thresholds{MinSup: 0.3, PFT: 0.9}
	for _, m := range allMiners() {
		b.Run(m.Name(), func(b *testing.B) {
			var stats core.MiningStats
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rs, err := m.Mine(context.Background(), db, th)
				if err != nil {
					b.Fatal(err)
				}
				stats = rs.Stats
			}
			b.ReportMetric(float64(stats.ChernoffPruned), "chernoff-pruned")
			b.ReportMetric(float64(stats.ExactEvaluations), "exact-evals")
		})
	}
}
