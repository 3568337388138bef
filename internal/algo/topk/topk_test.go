package topk

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"

	"umine/internal/algo"
	"umine/internal/core"
	"umine/internal/core/coretest"
	"umine/internal/dataset"
)

func TestRejectsNonPositiveK(t *testing.T) {
	if _, _, err := (&Miner{}).Mine(coretest.PaperDB()); err == nil {
		t.Fatal("K=0 accepted")
	}
	if _, _, err := (&Miner{K: -3}).Mine(coretest.PaperDB()); err == nil {
		t.Fatal("negative K accepted")
	}
}

func TestTopKOnPaperDB(t *testing.T) {
	got, _, err := (&Miner{K: 3}).Mine(coretest.PaperDB())
	if err != nil {
		t.Fatal(err)
	}
	// Item esups of Table 1: C 2.6, A 2.1, F 1.8, B 1.4, E 1.3, D 1.2; the
	// best 2-itemset {A,C} reaches 0.72+0.72+0.40 = 1.84, beating F — so
	// the top-3 are C, A, {A,C}. Note a pure item-level top-k would get
	// this wrong, which is why the miner explores multi-item extensions.
	want := []struct {
		set  core.Itemset
		esup float64
	}{
		{core.NewItemset(coretest.C), 2.6},
		{core.NewItemset(coretest.A), 2.1},
		{core.NewItemset(coretest.A, coretest.C), 1.84},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	for i, w := range want {
		if !got[i].Itemset.Equal(w.set) || math.Abs(got[i].ESup-w.esup) > 1e-9 {
			t.Errorf("result %d = %v (%v), want %v (%v)", i, got[i].Itemset, got[i].ESup, w.set, w.esup)
		}
	}
}

// bruteTopK computes the reference answer by full enumeration.
func bruteTopK(db *core.Database, k int) []core.Result {
	var all []core.Result
	for _, x := range coretest.AllItemsets(db.NumItems) {
		esup, v := db.ESupVar(x)
		if esup > 0 {
			all = append(all, core.Result{Itemset: x, ESup: esup, Var: v})
		}
	}
	sort.Slice(all, func(i, j int) bool { return better(all[i], all[j]) })
	if k < len(all) {
		all = all[:k]
	}
	return all
}

func TestTopKAgainstBruteForceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	for trial := 0; trial < 25; trial++ {
		db := coretest.RandomDB(rng, 20, 7, 0.5)
		for _, k := range []int{1, 3, 10, 50} {
			got, _, err := (&Miner{K: k}).Mine(db)
			if err != nil {
				t.Fatal(err)
			}
			want := bruteTopK(db, k)
			if len(got) != len(want) {
				t.Fatalf("trial %d k=%d: got %d results, want %d", trial, k, len(got), len(want))
			}
			for i := range want {
				if !got[i].Itemset.Equal(want[i].Itemset) || math.Abs(got[i].ESup-want[i].ESup) > 1e-9 {
					t.Fatalf("trial %d k=%d result %d: %v (%v) vs brute %v (%v)",
						trial, k, i, got[i].Itemset, got[i].ESup, want[i].Itemset, want[i].ESup)
				}
			}
		}
	}
}

func TestTopKMaxLen(t *testing.T) {
	db := coretest.PaperDB()
	got, _, err := (&Miner{K: 20, MaxLen: 1}).Mine(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 6 { // six items exist
		t.Fatalf("MaxLen=1 returned %d results, want 6", len(got))
	}
	for _, r := range got {
		if len(r.Itemset) != 1 {
			t.Fatalf("MaxLen=1 produced %v", r.Itemset)
		}
	}
}

func TestTopKDescendingAndDeterministic(t *testing.T) {
	db := dataset.Gazelle.GenerateUncertain(0.01, 8)
	a, _, err := (&Miner{K: 40}).Mine(db)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(a); i++ {
		if a[i].ESup > a[i-1].ESup+1e-12 {
			t.Fatalf("results not descending at %d", i)
		}
	}
	b, _, err := (&Miner{K: 40}).Mine(db)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if !a[i].Itemset.Equal(b[i].Itemset) {
			t.Fatal("top-k not deterministic")
		}
	}
}

// TestTopKPrefixProperty: the top-(k-1) must be a prefix of the top-k.
func TestTopKPrefixProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	db := coretest.RandomDB(rng, 30, 6, 0.6)
	prev, _, err := (&Miner{K: 1}).Mine(db)
	if err != nil {
		t.Fatal(err)
	}
	for k := 2; k <= 20; k++ {
		cur, _, err := (&Miner{K: k}).Mine(db)
		if err != nil {
			t.Fatal(err)
		}
		for i := range prev {
			if !cur[i].Itemset.Equal(prev[i].Itemset) {
				t.Fatalf("top-%d is not a prefix of top-%d at %d", k-1, k, i)
			}
		}
		prev = cur
	}
}

func TestTopKFewerResultsThanK(t *testing.T) {
	db := core.MustNewDatabase("two-items", [][]core.Unit{
		{{Item: 0, Prob: 0.5}, {Item: 1, Prob: 0.5}},
	})
	got, _, err := (&Miner{K: 100}).Mine(db)
	if err != nil {
		t.Fatal(err)
	}
	// {0}, {1}, {0,1} — three itemsets with positive esup.
	if len(got) != 3 {
		t.Fatalf("got %d results, want 3", len(got))
	}
}

// TestTopKMatchesUAprioriBits: top-k joins and counts every level above the
// first through the shared Apriori framework, so each itemset of length ≥ 2
// carries the exact ESup and Var bits UApriori reports for it. The workload
// spans several counting chunks, where a second summation order would show.
func TestTopKMatchesUAprioriBits(t *testing.T) {
	db := dataset.Accident.GenerateUncertain(0.01, 1)
	top, _, err := (&Miner{K: 200}).Mine(db)
	if err != nil {
		t.Fatal(err)
	}
	minESup := top[len(top)-1].ESup
	rs, err := algo.MustNewWith("UApriori", core.Options{}).Mine(context.Background(), db, core.Thresholds{MinESup: minESup / float64(db.N())})
	if err != nil {
		t.Fatal(err)
	}
	ref := make(map[string]core.Result, len(rs.Results))
	for _, r := range rs.Results {
		ref[r.Itemset.Key()] = r
	}
	checked := 0
	for _, r := range top {
		if len(r.Itemset) < 2 {
			continue
		}
		checked++
		u, ok := ref[r.Itemset.Key()]
		if !ok {
			t.Fatalf("%v (esup %v) missing from UApriori at min_esup %v", r.Itemset, r.ESup, minESup)
		}
		if math.Float64bits(r.ESup) != math.Float64bits(u.ESup) || math.Float64bits(r.Var) != math.Float64bits(u.Var) {
			t.Errorf("%v: top-k (%v, %v), UApriori (%v, %v)", r.Itemset, r.ESup, r.Var, u.ESup, u.Var)
		}
	}
	if checked == 0 {
		t.Fatal("no itemset of length ≥ 2 in the top-k; the workload checks nothing")
	}
}

func BenchmarkTopK(b *testing.B) {
	db := dataset.Accident.GenerateUncertain(0.002, 10)
	for _, k := range []int{10, 100, 1000} {
		m := &Miner{K: k}
		b.Run(map[int]string{10: "k=10", 100: "k=100", 1000: "k=1000"}[k], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := m.Mine(db); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
