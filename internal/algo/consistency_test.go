package algo

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"umine/internal/core"
	"umine/internal/core/coretest"
	"umine/internal/dataset"
)

// familyNames returns the names of the algorithms in one family, in
// registry order.
func familyNames(f Family) []string {
	var out []string
	for _, e := range registry {
		if e.Family == f {
			out = append(out, e.Name)
		}
	}
	return out
}

func TestRegistryCompleteness(t *testing.T) {
	if got := len(Names()); got != 11 {
		t.Fatalf("registry has %d algorithms, want 11 (8 + Chernoff variants + sampling extension)", got)
	}
	if got := len(familyNames(ExpectedSupportFamily)); got != 3 {
		t.Errorf("expected-support family size %d", got)
	}
	if got := len(familyNames(ExactFamily)); got != 4 {
		t.Errorf("exact family size %d", got)
	}
	if got := len(familyNames(ApproxFamily)); got != 4 {
		t.Errorf("approx family size %d", got)
	}
	for _, name := range Names() {
		m, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		if m.Name() != name {
			t.Errorf("registry name %q vs miner name %q", name, m.Name())
		}
	}
	if _, err := New("nope"); err == nil {
		t.Error("unknown name accepted")
	}
}

// TestExpectedSupportFamilyAgrees: the paper's uniform-platform requirement —
// all three expected-support algorithms must return identical result sets
// (itemsets, expected supports, variances) on every dataset.
func TestExpectedSupportFamilyAgrees(t *testing.T) {
	// Thresholds are chosen per dataset: dense profiles explode
	// combinatorially below min_esup ≈ 0.3 (the paper's own Connect sweep
	// stops at 0.4), while sparse profiles only produce results at low
	// thresholds.
	type familyCase struct {
		db  *core.Database
		ths []float64
	}
	var cases []familyCase
	if testing.Short() {
		// The dense profiles at low thresholds dominate this test's ~8 s;
		// short mode keeps one workload per density class so the
		// uniform-platform property still gets cross-checked in CI, and
		// generates only those databases.
		cases = []familyCase{
			{coretest.PaperDB(), []float64{0.4, 0.2, 0.05}},
			{dataset.Accident.GenerateUncertain(0.001, 2), []float64{0.4, 0.2}},
			{dataset.Gazelle.GenerateUncertain(0.01, 4), []float64{0.05}},
		}
	} else {
		cases = []familyCase{
			{coretest.PaperDB(), []float64{0.4, 0.2, 0.05}},
			{dataset.Connect.GenerateUncertain(0.003, 1), []float64{0.7, 0.5, 0.4}},
			{dataset.Accident.GenerateUncertain(0.001, 2), []float64{0.4, 0.2, 0.1}},
			{dataset.Kosarak.GenerateUncertain(0.0005, 3), []float64{0.05, 0.01}},
			{dataset.Gazelle.GenerateUncertain(0.01, 4), []float64{0.05, 0.01}},
		}
	}
	for _, tc := range cases {
		db := tc.db
		for _, minESup := range tc.ths {
			th := core.Thresholds{MinESup: minESup}
			var ref *core.ResultSet
			for _, name := range familyNames(ExpectedSupportFamily) {
				rs, err := MustNewWith(name, core.Options{}).Mine(context.Background(), db, th)
				if err != nil {
					t.Fatalf("%s on %s: %v", name, db.Name, err)
				}
				if ref == nil {
					ref = rs
					continue
				}
				if rs.Len() != ref.Len() {
					t.Fatalf("%s on %s (min_esup %v): %d itemsets, %s found %d",
						name, db.Name, th.MinESup, rs.Len(), ref.Algorithm, ref.Len())
				}
				for i := range ref.Results {
					a, b := ref.Results[i], rs.Results[i]
					if !a.Itemset.Equal(b.Itemset) {
						t.Fatalf("%s vs %s on %s: itemset %d: %v vs %v",
							ref.Algorithm, name, db.Name, i, a.Itemset, b.Itemset)
					}
					if math.Abs(a.ESup-b.ESup) > 1e-6 || math.Abs(a.Var-b.Var) > 1e-6 {
						t.Fatalf("%s vs %s on %s: %v aggregates differ: (%v,%v) vs (%v,%v)",
							ref.Algorithm, name, db.Name, a.Itemset, a.ESup, a.Var, b.ESup, b.Var)
					}
				}
			}
		}
	}
}

// TestExactFamilyAgrees: the four exact miners must return identical
// probabilistic frequent itemsets with matching exact probabilities.
func TestExactFamilyAgrees(t *testing.T) {
	dbs := []*core.Database{
		coretest.PaperDB(),
		dataset.Accident.GenerateUncertain(0.0008, 5),
		dataset.Gazelle.GenerateUncertain(0.008, 6),
	}
	ths := []core.Thresholds{
		{MinSup: 0.3, PFT: 0.9},
		{MinSup: 0.15, PFT: 0.5},
	}
	for _, db := range dbs {
		for _, th := range ths {
			var ref *core.ResultSet
			for _, name := range familyNames(ExactFamily) {
				rs, err := MustNewWith(name, core.Options{}).Mine(context.Background(), db, th)
				if err != nil {
					t.Fatalf("%s on %s: %v", name, db.Name, err)
				}
				if ref == nil {
					ref = rs
					continue
				}
				if rs.Len() != ref.Len() {
					t.Fatalf("%s on %s: %d itemsets, %s found %d",
						name, db.Name, rs.Len(), ref.Algorithm, ref.Len())
				}
				for i := range ref.Results {
					a, b := ref.Results[i], rs.Results[i]
					if !a.Itemset.Equal(b.Itemset) || math.Abs(a.FreqProb-b.FreqProb) > 1e-7 {
						t.Fatalf("%s vs %s on %s: result %d: %v fp %v vs %v fp %v",
							ref.Algorithm, name, db.Name, i, a.Itemset, a.FreqProb, b.Itemset, b.FreqProb)
					}
				}
			}
		}
	}
}

// TestBridgeBetweenDefinitions reproduces the paper's central claim: on a
// large database, mining with the probabilistic definition via the Normal
// approximation returns (almost) the same itemsets as the exact
// probabilistic miners, and both can be obtained at expected-support cost.
func TestBridgeBetweenDefinitions(t *testing.T) {
	if testing.Short() {
		t.Skip("dense exact-vs-approximate workload (~11 s) in -short mode")
	}
	db := dataset.Connect.GenerateUncertain(0.01, 7)
	th := core.Thresholds{MinSup: 0.4, PFT: 0.9}
	exactRS, err := MustNewWith("DCB", core.Options{}).Mine(context.Background(), db, th)
	if err != nil {
		t.Fatal(err)
	}
	approxRS, err := MustNewWith("NDUH-Mine", core.Options{}).Mine(context.Background(), db, th)
	if err != nil {
		t.Fatal(err)
	}
	if exactRS.Len() == 0 {
		t.Fatal("workload produced no exact results")
	}
	exactSet := map[string]bool{}
	for _, r := range exactRS.Results {
		exactSet[r.Itemset.Key()] = true
	}
	inter := 0
	for _, r := range approxRS.Results {
		if exactSet[r.Itemset.Key()] {
			inter++
		}
	}
	precision := float64(inter) / math.Max(1, float64(approxRS.Len()))
	recall := float64(inter) / float64(exactRS.Len())
	if precision < 0.95 || recall < 0.95 {
		t.Fatalf("bridge too weak: precision %.3f recall %.3f", precision, recall)
	}
}

// TestRandomizedCrossFamilyProperty: on random small databases, every
// probabilistic frequent itemset found by the exact miners must also be
// expected-support frequent at some low threshold (sanity linkage), and
// result sets must be internally anti-monotone.
func TestRandomizedCrossFamilyProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(701))
	for trial := 0; trial < 15; trial++ {
		db := coretest.RandomDB(rng, 25, 6, 0.5)
		th := core.Thresholds{MinSup: 0.25, PFT: 0.6}
		rs, err := MustNewWith("DCB", core.Options{}).Mine(context.Background(), db, th)
		if err != nil {
			t.Fatal(err)
		}
		frequent := map[string]bool{}
		for _, r := range rs.Results {
			frequent[r.Itemset.Key()] = true
		}
		for _, r := range rs.Results {
			x := r.Itemset
			if len(x) < 2 {
				continue
			}
			for drop := range x {
				sub := make(core.Itemset, 0, len(x)-1)
				for i, it := range x {
					if i != drop {
						sub = append(sub, it)
					}
				}
				if !frequent[sub.Key()] {
					t.Fatalf("anti-monotonicity violated: %v frequent, subset %v not", x, sub)
				}
			}
			// Linkage: frequent probability > pft requires nontrivial
			// expected support.
			if r.ESup <= 0 {
				t.Fatalf("%v frequent with esup %v", x, r.ESup)
			}
		}
	}
}
