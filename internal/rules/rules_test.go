package rules

import (
	"context"
	"math"
	"strings"
	"testing"

	"umine/internal/algo"
	"umine/internal/core"
	"umine/internal/core/coretest"
	"umine/internal/dataset"
)

// mined returns a subset-closed result set for the paper's Table 1 database
// at a low threshold, so multi-item itemsets exist.
func mined(t *testing.T, minESup float64) *core.ResultSet {
	t.Helper()
	rs, err := algo.MustNewWith("UApriori", core.Options{}).Mine(context.Background(), coretest.PaperDB(), core.Thresholds{MinESup: minESup})
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func TestGenerateOnPaperDB(t *testing.T) {
	rs := mined(t, 0.25) // admits itemsets like {A,C}
	rules, err := Generate(rs, Config{MinConfidence: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) == 0 {
		t.Fatal("no rules generated")
	}
	// Verify every reported measure against direct database computations.
	db := coretest.PaperDB()
	for _, r := range rules {
		z := append(append(core.Itemset{}, r.Antecedent...), r.Consequent...)
		z = core.NewItemset(z...)
		wantESup := db.ESup(z)
		if math.Abs(r.ESup-wantESup) > 1e-9 {
			t.Errorf("%v: esup %v, want %v", r, r.ESup, wantESup)
		}
		wantConf := wantESup / db.ESup(r.Antecedent)
		if math.Abs(r.Confidence-wantConf) > 1e-9 {
			t.Errorf("%v: conf %v, want %v", r, r.Confidence, wantConf)
		}
		if r.Confidence+core.Eps < 0.5 {
			t.Errorf("%v below the confidence threshold", r)
		}
		wantLift := wantConf / (db.ESup(r.Consequent) / float64(db.N()))
		if math.Abs(r.Lift-wantLift) > 1e-9 {
			t.Errorf("%v: lift %v, want %v", r, r.Lift, wantLift)
		}
	}
}

func TestGenerateCompleteAgainstBruteForce(t *testing.T) {
	rs := mined(t, 0.2)
	rules, err := Generate(rs, Config{MinConfidence: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, r := range rules {
		got[r.Antecedent.Key()+"=>"+r.Consequent.Key()] = true
	}
	// Brute force: every split of every frequent itemset.
	db := coretest.PaperDB()
	want := 0
	for _, res := range rs.Results {
		z := res.Itemset
		if len(z) < 2 {
			continue
		}
		for mask := 1; mask < (1 << len(z)); mask++ {
			var x, y core.Itemset
			for i, it := range z {
				if mask&(1<<i) != 0 {
					y = append(y, it)
				} else {
					x = append(x, it)
				}
			}
			if len(x) == 0 || len(y) == 0 {
				continue
			}
			conf := db.ESup(z) / db.ESup(x)
			if conf+core.Eps >= 0.4 {
				want++
				if !got[core.Itemset(x).Key()+"=>"+core.Itemset(y).Key()] {
					t.Errorf("missing rule %v => %v (conf %v)", x, y, conf)
				}
			}
		}
	}
	if len(rules) != want {
		t.Errorf("generated %d rules, brute force says %d", len(rules), want)
	}
}

func TestGenerateSortedByConfidence(t *testing.T) {
	rs := mined(t, 0.2)
	rules, err := Generate(rs, Config{MinConfidence: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rules); i++ {
		if rules[i].Confidence > rules[i-1].Confidence+1e-12 {
			t.Fatalf("rules not sorted by confidence at %d", i)
		}
	}
}

func TestGenerateMaxConsequent(t *testing.T) {
	rs := mined(t, 0.2)
	rules, err := Generate(rs, Config{MinConfidence: 0.3, MaxConsequent: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rules {
		if len(r.Consequent) > 1 {
			t.Errorf("consequent %v exceeds the bound", r.Consequent)
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	rs := mined(t, 0.4)
	if _, err := Generate(rs, Config{MinConfidence: 0}); err == nil {
		t.Error("zero confidence accepted")
	}
	if _, err := Generate(rs, Config{MinConfidence: 1.5}); err == nil {
		t.Error("confidence > 1 accepted")
	}
	// A non-subset-closed result set must be rejected, not silently wrong.
	broken := &core.ResultSet{
		N: 4,
		Results: []core.Result{
			{Itemset: core.NewItemset(0, 2), ESup: 1.5},
		},
	}
	_, err := Generate(broken, Config{MinConfidence: 0.1})
	if err == nil || !strings.Contains(err.Error(), "subset-closed") {
		t.Errorf("non-closed result set: err = %v", err)
	}
}

func TestGenerateOnProfileWorkload(t *testing.T) {
	db := dataset.Gazelle.GenerateUncertain(0.01, 5)
	rs, err := algo.MustNewWith("UApriori", core.Options{}).Mine(context.Background(), db, core.Thresholds{MinESup: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	rules, err := Generate(rs, Config{MinConfidence: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rules {
		if len(r.Antecedent) == 0 || len(r.Consequent) == 0 {
			t.Fatalf("degenerate rule %v", r)
		}
		for _, it := range r.Consequent {
			if r.Antecedent.Contains(it) {
				t.Fatalf("overlapping rule %v", r)
			}
		}
		if r.Confidence < 0.6-core.Eps || r.Confidence > 1+core.Eps {
			t.Fatalf("confidence out of range: %v", r)
		}
	}
}

func TestRuleString(t *testing.T) {
	r := Rule{
		Antecedent: core.NewItemset(1),
		Consequent: core.NewItemset(2),
		ESup:       1.5, Confidence: 0.75, Lift: 1.2,
	}
	s := r.String()
	if !strings.Contains(s, "=>") || !strings.Contains(s, "0.750") {
		t.Errorf("String() = %q", s)
	}
}
