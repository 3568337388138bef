package umine

// Extensions beyond the paper's eight algorithms: association-rule
// generation over uncertain frequent itemsets, condensed representations
// (closed / maximal), top-k selection, and direct construction of the
// possible-world sampling miner with custom guarantees. See the package
// docs of umine/internal/rules and umine/internal/algo/sampling for the
// algorithms and their provenance.

import (
	"io"

	"umine/internal/algo/sampling"
	"umine/internal/algo/topk"
	"umine/internal/core"
	"umine/internal/prob"
	"umine/internal/rules"
	"umine/internal/stream"
)

// Rule is an association rule X ⇒ Y over an uncertain database, measured by
// expected support, expected confidence and lift.
type Rule = rules.Rule

// RuleConfig controls association-rule generation.
type RuleConfig = rules.Config

// GenerateRules derives all association rules with expected confidence at
// least cfg.MinConfidence from a mined result set (which is subset-closed
// by the anti-monotonicity of both frequentness definitions).
func GenerateRules(rs *ResultSet, cfg RuleConfig) ([]Rule, error) {
	return rules.Generate(rs, cfg)
}

// FilterClosed keeps only closed itemsets: those with no proper superset of
// equal expected support in the result set.
func FilterClosed(rs *ResultSet) *ResultSet { return core.FilterClosed(rs) }

// FilterMaximal keeps only maximal itemsets: those with no proper superset
// in the result set.
func FilterMaximal(rs *ResultSet) *ResultSet { return core.FilterMaximal(rs) }

// TopK returns the k results with the highest expected support, descending.
func TopK(rs *ResultSet, k int) []Result { return core.TopK(rs, k) }

// NewSamplingMiner constructs the possible-world sampling miner (the
// paper's reference [11], Calders et al. 2010) with an explicit (ε, δ)
// estimation guarantee; the registry's "MCSampling" uses the defaults
// (ε = 0.02, δ = 0.05).
func NewSamplingMiner(epsilon, delta float64, seed int64) Miner {
	return &sampling.Miner{Epsilon: epsilon, Delta: delta, Seed: seed}
}

// MineTopK returns the k itemsets with the highest expected support,
// descending, without a threshold — a rising-bound level-wise search (see
// umine/internal/algo/topk). maxLen bounds the itemset length (0 =
// unbounded). An itemset of length ≥ 2 carries the ESup and Var bits
// UApriori reports for it; singletons come from the item columns, as
// UH-Mine's and UFP-growth's do.
func MineTopK(db *Database, k, maxLen int) ([]Result, error) {
	out, _, err := (&topk.Miner{K: k, MaxLen: maxLen}).Mine(db)
	return out, err
}

// WriteResultsCSV serializes a result set as CSV (header + one row per
// itemset).
func WriteResultsCSV(w io.Writer, rs *ResultSet) error { return rs.WriteCSV(w) }

// WriteResultsJSON serializes a result set as an indented JSON document;
// ReadResultsJSON parses it back.
func WriteResultsJSON(w io.Writer, rs *ResultSet) error { return rs.WriteJSON(w) }

// ReadResultsJSON parses a result set written by WriteResultsJSON.
func ReadResultsJSON(r io.Reader) (*ResultSet, error) { return core.ReadJSON(r) }

// Window is a sliding window over an uncertain transaction stream with
// incrementally maintained expected supports and Normal-approximation
// frequent probabilities (see umine/internal/stream).
type Window = stream.Window

// WindowConfig parameterizes NewWindow.
type WindowConfig = stream.Config

// NewWindow builds a sliding window over an uncertain transaction stream.
func NewWindow(cfg WindowConfig) (*Window, error) { return stream.NewWindow(cfg) }

// SupportInterval returns the central (1−alpha) confidence interval
// [lo, hi] of the support of itemset x over db, from the exact
// Poisson-Binomial distribution: Pr{lo ≤ sup(X) ≤ hi} ≥ 1−alpha. It
// complements the point measures (esup, frequent probability) with a range
// a report can print. Cost O(N·msc); intended for selected itemsets, not
// whole result sets.
func SupportInterval(db *Database, x Itemset, alpha float64) (lo, hi int) {
	ps := db.TxProbs(x)
	nonzero := ps[:0]
	for _, p := range ps {
		if p > 0 {
			nonzero = append(nonzero, p)
		}
	}
	return prob.PBInterval(nonzero, alpha)
}
