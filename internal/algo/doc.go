// Package algo registers every miner implementation behind a uniform
// registry (registry.go) keyed by the paper's experiment labels. Following
// the paper's Section 3, an algorithm is a search framework plus a
// frequentness test: each registry entry names its framework, Apriori
// (umine/internal/algo/apriori) or UH-Mine (umine/internal/algo/uhmine), and
// its rule (rules.go), and one miner type per framework runs it. UFP-growth,
// which has its own search, and the MCSampling extension keep their own
// miner types. The paper's qualitative comparison tables are reproduced
// below as reference documentation, with the rule each row maps to.
//
// # Table 3 — expected-support-based algorithms
//
//	Method      Search strategy       Data structure                    Rule
//	UApriori    breadth-first         none (candidate tries per level)  esupRule
//	UFP-growth  depth-first           UFP-tree                          (own miner)
//	UH-Mine     depth-first           UH-Struct                         esupRule
//
// # Table 4 — determining the frequent probability of one itemset
//
//	Method    Complexity          Accuracy                          Rule
//	DP        O(N² · min_sup)     exact                             exactRule (DPNB, DPB)
//	DC        O(N log N)          exact                             exactRule (DCNB, DCB)
//	Chernoff  O(N)                false positives possible (upper   the B variants
//	                              bound)
//
// The Chernoff bound needs only the expected support, which the shared
// counting pass produces as a by-product, so its marginal cost inside the
// Apriori loop is O(1); the O(N) in the table is the cost of obtaining µ
// from scratch.
//
// # Table 5 — approximate probabilistic algorithms
//
//	Method      Framework  Approximation                           Rule
//	PDUApriori  UApriori   Poisson (λ = esup; decision only, no    poissonRule
//	                       per-itemset probability values)
//	NDUApriori  UApriori   Normal (esup + variance, continuity-    normalRule
//	                       corrected)
//	NDUH-Mine   UH-Mine    Normal (esup + variance, continuity-    normalRule
//	                       corrected)
//
// All three run the frequentness test in O(N) per itemset — the same order
// as an expected-support test — which is the paper's bridge between the two
// frequent-itemset definitions. NDUApriori and NDUH-Mine share one rule and
// differ only in the framework. The registry's MCSampling extension also
// answers approximately, with a sampling budget independent of N.
package algo
