package umine_test

import (
	"context"
	"fmt"
	"os"

	"umine"
)

// The paper's Table 1 database, reused by the examples below.
func paperDB() *umine.Database {
	return umine.MustNewDatabase("table1", [][]umine.Unit{
		{{Item: 0, Prob: 0.8}, {Item: 1, Prob: 0.2}, {Item: 2, Prob: 0.9}, {Item: 3, Prob: 0.7}, {Item: 5, Prob: 0.8}},
		{{Item: 0, Prob: 0.8}, {Item: 1, Prob: 0.7}, {Item: 2, Prob: 0.9}, {Item: 4, Prob: 0.5}},
		{{Item: 0, Prob: 0.5}, {Item: 2, Prob: 0.8}, {Item: 4, Prob: 0.8}, {Item: 5, Prob: 0.3}},
		{{Item: 1, Prob: 0.5}, {Item: 3, Prob: 0.5}, {Item: 5, Prob: 0.7}},
	})
}

// Mining expected-support frequent itemsets (the paper's Example 1).
func ExampleMine() {
	rs, err := umine.Mine("UApriori", paperDB(), umine.Thresholds{MinESup: 0.5})
	if err != nil {
		panic(err)
	}
	for _, r := range rs.Results {
		fmt.Printf("%v esup=%.1f\n", r.Itemset, r.ESup)
	}
	// Output:
	// {0} esup=2.1
	// {2} esup=2.6
}

// Mining probabilistic frequent itemsets exactly with DCB.
func ExampleMine_probabilistic() {
	rs, err := umine.Mine("DCB", paperDB(), umine.Thresholds{MinSup: 0.5, PFT: 0.7})
	if err != nil {
		panic(err)
	}
	for _, r := range rs.Results {
		fmt.Printf("%v Pr=%.2f\n", r.Itemset, r.FreqProb)
	}
	// Output:
	// {0} Pr=0.80
	// {2} Pr=0.95
}

// The same query through every registered algorithm: the paper's uniform
// platform. The miners agree exactly, except PDUApriori, whose Poisson
// approximation of the support distribution misses {0} on this database.
func ExampleAlgorithms() {
	db := paperDB()
	for _, name := range umine.Algorithms() {
		m, err := umine.NewMiner(name)
		if err != nil {
			panic(err)
		}
		th := umine.Thresholds{MinESup: 0.5}
		if m.Semantics() == umine.Probabilistic {
			th = umine.Thresholds{MinSup: 0.5, PFT: 0.7}
		}
		rs, err := m.Mine(context.Background(), db, th)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-11s %-16s %v\n", name, m.Semantics(), rs.Itemsets())
	}
	// Output:
	// UApriori    expected-support [{0} {2}]
	// UFP-growth  expected-support [{0} {2}]
	// UH-Mine     expected-support [{0} {2}]
	// DPNB        probabilistic    [{0} {2}]
	// DPB         probabilistic    [{0} {2}]
	// DCNB        probabilistic    [{0} {2}]
	// DCB         probabilistic    [{0} {2}]
	// PDUApriori  probabilistic    [{2}]
	// NDUApriori  probabilistic    [{0} {2}]
	// NDUH-Mine   probabilistic    [{0} {2}]
	// MCSampling  probabilistic    [{0} {2}]
}

// Top-k mining needs no threshold: ask for a budget instead.
func ExampleMineTopK() {
	top, err := umine.MineTopK(paperDB(), 3, 0)
	if err != nil {
		panic(err)
	}
	for _, r := range top {
		fmt.Printf("%v esup=%.2f\n", r.Itemset, r.ESup)
	}
	// Output:
	// {2} esup=2.60
	// {0} esup=2.10
	// {0 2} esup=1.84
}

// Association rules with expected confidence over a mined result set.
func ExampleGenerateRules() {
	rs, err := umine.Mine("UApriori", paperDB(), umine.Thresholds{MinESup: 0.25})
	if err != nil {
		panic(err)
	}
	rules, err := umine.GenerateRules(rs, umine.RuleConfig{MinConfidence: 0.85})
	if err != nil {
		panic(err)
	}
	for _, r := range rules {
		fmt.Printf("%v => %v conf=%.3f\n", r.Antecedent, r.Consequent, r.Confidence)
	}
	// Output:
	// {0} => {2} conf=0.876
}

// Exporting a result set as CSV.
func ExampleWriteResultsCSV() {
	rs, err := umine.Mine("UApriori", paperDB(), umine.Thresholds{MinESup: 0.5})
	if err != nil {
		panic(err)
	}
	if err := umine.WriteResultsCSV(os.Stdout, rs); err != nil {
		panic(err)
	}
	// Output:
	// itemset,length,esup,var,freq_prob
	// 0,1,2.1,0.57,
	// 2,1,2.6,0.33999999999999997,
}

// Streaming: incrementally tracked expected support over a sliding window.
func ExampleNewWindow() {
	w, err := umine.NewWindow(umine.WindowConfig{
		Size:       3,
		Thresholds: umine.Thresholds{MinESup: 0.5},
		Semantics:  umine.ExpectedSupport,
	})
	if err != nil {
		panic(err)
	}
	w.Watch(umine.NewItemset(0))
	for _, tx := range paperDB().Transactions() {
		if _, err := w.PushCanonical(context.Background(), tx); err != nil {
			panic(err)
		}
	}
	esup, _ := w.ESup(umine.NewItemset(0))
	fmt.Printf("windowed esup=%.1f over N=%d\n", esup, w.N())
	// Output:
	// windowed esup=1.3 over N=3
}
