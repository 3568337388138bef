package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// PaperDB builds the uncertain database of the paper's Table 1 with the item
// coding A=0, B=1, C=2, D=3, E=4, F=5.
func PaperDB() *Database {
	return MustNewDatabase("table1", [][]Unit{
		{{0, 0.8}, {1, 0.2}, {2, 0.9}, {3, 0.7}, {5, 0.8}}, // T1
		{{0, 0.8}, {1, 0.7}, {2, 0.9}, {4, 0.5}},           // T2
		{{0, 0.5}, {2, 0.8}, {4, 0.8}, {5, 0.3}},           // T3
		{{1, 0.5}, {3, 0.5}, {5, 0.7}},                     // T4
	})
}

const (
	itA = Item(0)
	itB = Item(1)
	itC = Item(2)
	itD = Item(3)
	itE = Item(4)
	itF = Item(5)
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// TestPaperExample1 reproduces Example 1 of Section 2: with min_esup = 0.5
// on Table 1 (N=4, threshold 2.0), exactly A (esup 2.1) and C (esup 2.6) are
// expected-support-based frequent items.
func TestPaperExample1(t *testing.T) {
	db := PaperDB()
	esup, _ := db.ItemESupVar()
	want := map[Item]float64{itA: 2.1, itB: 1.4, itC: 2.6, itD: 1.2, itE: 1.3, itF: 1.8}
	for it, w := range want {
		if !almostEqual(esup[it], w, 1e-12) {
			t.Errorf("esup(item %d) = %v, want %v", it, esup[it], w)
		}
	}
	th := Thresholds{MinESup: 0.5}
	minCount := th.MinESupCount(db.N())
	var frequent []Item
	for it, e := range esup {
		if e >= minCount-Eps {
			frequent = append(frequent, Item(it))
		}
	}
	if len(frequent) != 2 || frequent[0] != itA || frequent[1] != itC {
		t.Fatalf("frequent items = %v, want [A C]", frequent)
	}
}

// TestPaperFrequencyOrder reproduces the ordered item list of Section 3.1.2:
// {C:2.6, A:2.1, F:1.8, B:1.4, E:1.3, D:1.2} at min_esup = 0.25.
func TestPaperFrequencyOrder(t *testing.T) {
	db := PaperDB()
	esup, _ := db.ItemESupVar()
	order, rank := FrequencyOrder(esup, Thresholds{MinESup: 0.25}.MinESupCount(db.N()))
	want := []Item{itC, itA, itF, itB, itE, itD}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	for pos, it := range order {
		if rank[it] != pos {
			t.Errorf("rank[%d] = %d, want %d", it, rank[it], pos)
		}
	}
}

func TestESupOfItemsets(t *testing.T) {
	db := PaperDB()
	tests := []struct {
		x    Itemset
		want float64
	}{
		{NewItemset(itA, itC), 0.8*0.9 + 0.8*0.9 + 0.5*0.8}, // 1.84
		{NewItemset(itA, itB), 0.8*0.2 + 0.8*0.7},
		{NewItemset(itB, itD), 0.2*0.7 + 0.5*0.5},
		{NewItemset(itA, itC, itE), 0.8*0.9*0.5 + 0.5*0.8*0.8},
		{NewItemset(itA, itB, itC, itD, itE, itF), 0},
	}
	for _, tc := range tests {
		if got := db.ESup(tc.x); !almostEqual(got, tc.want, 1e-12) {
			t.Errorf("ESup(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
}

func TestESupVarMatchesDefinition(t *testing.T) {
	db := PaperDB()
	x := NewItemset(itA, itC)
	esup, v := db.ESupVar(x)
	wantE, wantV := 0.0, 0.0
	for _, tr := range db.Transactions() {
		p := tr.ItemsetProb(x)
		wantE += p
		wantV += p * (1 - p)
	}
	if !almostEqual(esup, wantE, 1e-12) || !almostEqual(v, wantV, 1e-12) {
		t.Fatalf("ESupVar = (%v,%v), want (%v,%v)", esup, v, wantE, wantV)
	}
}

func TestItemESupVarSingleScanAgreesWithPerItemset(t *testing.T) {
	db := PaperDB()
	esup, varsup := db.ItemESupVar()
	for it := 0; it < db.NumItems; it++ {
		e, v := db.ESupVar(NewItemset(Item(it)))
		if !almostEqual(esup[it], e, 1e-12) {
			t.Errorf("item %d esup: %v vs %v", it, esup[it], e)
		}
		if !almostEqual(varsup[it], v, 1e-12) {
			t.Errorf("item %d var: %v vs %v", it, varsup[it], v)
		}
	}
}

func TestTxProbsAlignment(t *testing.T) {
	db := PaperDB()
	ps := db.TxProbs(NewItemset(itD))
	want := []float64{0.7, 0, 0, 0.5}
	for i := range want {
		if !almostEqual(ps[i], want[i], 1e-12) {
			t.Fatalf("TxProbs = %v, want %v", ps, want)
		}
	}
}

func TestNormalizeTransaction(t *testing.T) {
	got, err := NormalizeTransaction([]Unit{{3, 0.5}, {1, 0.9}, {3, 0.7}, {2, 0}})
	if err != nil {
		t.Fatal(err)
	}
	want := TxOf(Unit{1, 0.9}, Unit{3, 0.7})
	if !got.Equal(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestNormalizeTransactionRejectsBadProbs(t *testing.T) {
	for _, p := range []float64{math.NaN(), -0.5, 1.5, 2} {
		if _, err := NormalizeTransaction([]Unit{{1, p}}); err == nil {
			t.Errorf("probability %v accepted", p)
		}
	}
	// Tiny numeric overshoot is clamped, not rejected.
	tr, err := NormalizeTransaction([]Unit{{1, 1 + 1e-12}})
	if err != nil || tr.Probs[0] != 1 {
		t.Fatalf("overshoot not clamped: %v %v", tr, err)
	}
}

func TestTransactionItemsetProb(t *testing.T) {
	tr := TxOf(Unit{1, 0.5}, Unit{3, 0.4}, Unit{7, 0.25})
	tests := []struct {
		x    Itemset
		want float64
	}{
		{nil, 1},
		{NewItemset(1), 0.5},
		{NewItemset(1, 3), 0.2},
		{NewItemset(1, 3, 7), 0.05},
		{NewItemset(2), 0},
		{NewItemset(1, 2), 0},
		{NewItemset(8), 0},
	}
	for _, tc := range tests {
		if got := tr.ItemsetProb(tc.x); !almostEqual(got, tc.want, 1e-12) {
			t.Errorf("ItemsetProb(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
}

func TestDatabaseStats(t *testing.T) {
	st := PaperDB().Stats()
	if st.NumTrans != 4 || st.NumItems != 6 {
		t.Fatalf("stats = %+v", st)
	}
	if !almostEqual(st.AvgLen, 16.0/4.0, 1e-12) {
		t.Errorf("AvgLen = %v", st.AvgLen)
	}
	if !almostEqual(st.Density, 4.0/6.0, 1e-12) {
		t.Errorf("Density = %v", st.Density)
	}
	if st.MaxTransLen != 5 || st.EmptyTrans != 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.MinProb != 0.2 || st.MaxProb != 0.9 {
		t.Errorf("prob range = [%v, %v]", st.MinProb, st.MaxProb)
	}
}

func TestDatabaseValidate(t *testing.T) {
	db := PaperDB()
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
	mk := func(units ...Unit) *Database {
		b := NewBuilder("bad")
		b.AddCanonical(TxOf(units...)) // trusted append: no normalization
		out := b.Build()
		out.NumItems = 3
		return out
	}
	bad := mk(Unit{5, 0.5})
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "universe") {
		t.Fatalf("expected universe error, got %v", err)
	}
	bad2 := mk(Unit{1, 0.5}, Unit{1, 0.6})
	if err := bad2.Validate(); err == nil || !strings.Contains(err.Error(), "canonical") {
		t.Fatalf("expected canonical error, got %v", err)
	}
	bad3 := mk(Unit{1, 0})
	if err := bad3.Validate(); err == nil {
		t.Fatal("zero probability accepted")
	}
}

func TestDatabaseSlice(t *testing.T) {
	db := PaperDB()
	sl := db.Slice(1, 3)
	if sl.N() != 2 {
		t.Fatalf("N = %d", sl.N())
	}
	if got := sl.ESup(NewItemset(itA)); !almostEqual(got, 1.3, 1e-12) {
		t.Fatalf("sliced esup(A) = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Slice did not panic")
		}
	}()
	db.Slice(3, 10)
}

func TestThresholdCounts(t *testing.T) {
	th := Thresholds{MinSup: 0.5, MinESup: 0.5, PFT: 0.9}
	if got := th.MinSupCount(4); got != 2 {
		t.Errorf("MinSupCount(4) = %d, want 2", got)
	}
	if got := th.MinSupCount(5); got != 3 {
		t.Errorf("MinSupCount(5) = %d, want 3", got)
	}
	if got := (Thresholds{MinSup: 0.0001}).MinSupCount(100); got != 1 {
		t.Errorf("tiny min_sup count = %d, want 1", got)
	}
	if got := th.MinESupCount(4); got != 2.0 {
		t.Errorf("MinESupCount(4) = %v, want 2", got)
	}
}

func TestThresholdValidate(t *testing.T) {
	valid := Thresholds{MinESup: 0.5, MinSup: 0.3, PFT: 0.9}
	if err := valid.Validate(ExpectedSupport); err != nil {
		t.Error(err)
	}
	if err := valid.Validate(Probabilistic); err != nil {
		t.Error(err)
	}
	for _, th := range []Thresholds{{MinESup: 0}, {MinESup: -1}, {MinESup: 1.5}, {MinESup: math.NaN()}} {
		if err := th.Validate(ExpectedSupport); err == nil {
			t.Errorf("thresholds %+v accepted for expected-support", th)
		}
	}
	for _, th := range []Thresholds{
		{MinSup: 0, PFT: 0.5}, {MinSup: 0.5, PFT: 0}, {MinSup: 0.5, PFT: 1},
		{MinSup: math.NaN(), PFT: 0.5}, {MinSup: 0.5, PFT: math.NaN()},
	} {
		if err := th.Validate(Probabilistic); err == nil {
			t.Errorf("thresholds %+v accepted for probabilistic", th)
		}
	}
}

func TestResultSetLookup(t *testing.T) {
	rs := &ResultSet{Results: []Result{
		{Itemset: NewItemset(1)},
		{Itemset: NewItemset(2)},
		{Itemset: NewItemset(1, 2)},
	}}
	SortResults(rs.Results)
	for _, x := range []Itemset{NewItemset(1), NewItemset(2), NewItemset(1, 2)} {
		if _, ok := rs.Lookup(x); !ok {
			t.Errorf("Lookup(%v) missed", x)
		}
	}
	if _, ok := rs.Lookup(NewItemset(3)); ok {
		t.Error("Lookup({3}) found a phantom result")
	}
	if rs.MaxLen() != 2 {
		t.Errorf("MaxLen = %d", rs.MaxLen())
	}
}

// Property: esup is anti-monotone — esup(X) ≥ esup(X ∪ {y}) on random
// databases (downward-closure foundation, Section 3.1.1).
func TestESupAntiMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		db := RandomDB(rng, 20, 8, 0.5)
		x := randomItemset(rng, 3, 8)
		if len(x) == 0 {
			continue
		}
		y := Item(rng.Intn(8))
		if x.Contains(y) {
			continue
		}
		super := NewItemset(append(x.Clone(), y)...)
		if db.ESup(super) > db.ESup(x)+1e-12 {
			t.Fatalf("esup not anti-monotone: esup(%v)=%v > esup(%v)=%v",
				super, db.ESup(super), x, db.ESup(x))
		}
	}
}

// RandomDB generates a small random database for property tests: n
// transactions over a universe of m items, each item present independently
// with probability density, with a uniform random existential probability.
func RandomDB(rng *rand.Rand, n, m int, density float64) *Database {
	raw := make([][]Unit, n)
	for i := range raw {
		for it := 0; it < m; it++ {
			if rng.Float64() < density {
				raw[i] = append(raw[i], Unit{Item(it), rng.Float64()})
			}
		}
	}
	return MustNewDatabase("random", raw)
}
