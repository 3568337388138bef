// Package core defines the shared data model for mining frequent itemsets
// over uncertain transaction databases, following the uniform-platform design
// of Tong, Chen, Cheng and Yu, "Mining Frequent Itemsets over Uncertain
// Databases", PVLDB 5(11), 2012.
//
// The package provides:
//
//   - items, itemsets and uncertain transactions (items tagged with
//     existential probabilities);
//   - the Database container with derived statistics (density, average
//     transaction length) mirroring Table 6 of the paper;
//   - the two frequentness semantics of Section 2 — expected-support-based
//     (Definitions 1–2) and probabilistic (Definitions 3–4) — expressed as
//     Thresholds;
//   - the Miner interface and Result/ResultSet types shared by all eight
//     algorithm implementations, so family comparisons measure algorithmic
//     differences rather than implementation accidents.
//
// # Storage: the arena and the view-type migration
//
// A Database is arena-backed and columnar: every transaction's units live
// in one contiguous item column and one parallel probability column, with a
// per-transaction offset table (see Database and Builder). Transaction is
// no longer an owning []Unit row — it is a cheap two-slice-header *view*
// into the arena, handed out by Database.Tx in O(1) with zero allocation.
// Code migrating from the row representation maps as follows:
//
//	for _, u := range tx        →  for i, it := range tx.Items { p := tx.Probs[i] ... }
//	len(tx), tx[i]              →  tx.Len(), tx.Unit(i)
//	db.Transactions[j]          →  db.Tx(j)   (db.Transactions() materializes views)
//	len(db.Transactions)        →  db.N()
//	&Database{Transactions: …}  →  NewDatabase / Builder (AddCanonical for views)
//
// Scans touch flat arrays instead of chasing N row pointers, Slice is an
// O(1) re-slice of the offset table, and Database.Vertical lazily builds
// the immutable per-item postings index (TIDs + probabilities, U-Eclat
// style) that the apriori counting pass uses for sparse candidate sets.
//
// All probabilities are float64. Item identifiers are dense small integers,
// which lets per-item tables be plain slices.
package core

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Item identifies a distinct item in the universe I = {i_1, ..., i_n}.
// Identifiers are expected to be dense (0-based) so that algorithms can use
// slices indexed by Item instead of hash maps.
type Item uint32

// Itemset is a non-empty set of distinct items in canonical (ascending)
// order. The zero value is the empty itemset, which is never frequent.
type Itemset []Item

// NewItemset returns the canonical form of the given items: sorted ascending
// with duplicates removed. The input slice is not modified.
func NewItemset(items ...Item) Itemset {
	if len(items) == 0 {
		return nil
	}
	s := make(Itemset, len(items))
	copy(s, items)
	slices.Sort(s)
	return slices.Compact(s)
}

// Len returns the number of items; an Itemset of length l is the paper's
// "l-itemset".
func (s Itemset) Len() int { return len(s) }

// Contains reports whether item x is a member of s. s must be canonical.
func (s Itemset) Contains(x Item) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= x })
	return i < len(s) && s[i] == x
}

// ContainsAll reports whether every item of sub is a member of s.
// Both itemsets must be canonical. Runs in O(len(s) + len(sub)).
func (s Itemset) ContainsAll(sub Itemset) bool {
	if len(sub) > len(s) {
		return false
	}
	i := 0
	for _, x := range sub {
		for i < len(s) && s[i] < x {
			i++
		}
		if i == len(s) || s[i] != x {
			return false
		}
		i++
	}
	return true
}

// Equal reports whether s and t contain exactly the same items.
func (s Itemset) Equal(t Itemset) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// Compare orders itemsets first by length, then lexicographically.
// It returns -1, 0 or +1. This is the canonical report order used by all
// miners so that result sets are directly diffable.
func (s Itemset) Compare(t Itemset) int {
	if len(s) != len(t) {
		if len(s) < len(t) {
			return -1
		}
		return 1
	}
	for i := range s {
		if s[i] != t[i] {
			if s[i] < t[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// Extend returns a new canonical itemset equal to s with item x appended.
// x must be strictly greater than the last item of s; this is the standard
// prefix-extension used by depth-first miners and candidate generation.
func (s Itemset) Extend(x Item) Itemset {
	if len(s) > 0 && x <= s[len(s)-1] {
		panic(fmt.Sprintf("core: Extend(%d) violates prefix order of %v", x, s))
	}
	out := make(Itemset, len(s)+1)
	copy(out, s)
	out[len(s)] = x
	return out
}

// Clone returns an independent copy of s.
func (s Itemset) Clone() Itemset {
	out := make(Itemset, len(s))
	copy(out, s)
	return out
}

// Key returns a compact string key identifying the itemset, suitable for use
// as a map key. The encoding is the little-endian byte expansion of each
// item; it is injective for canonical itemsets.
func (s Itemset) Key() string {
	var b strings.Builder
	b.Grow(4 * len(s))
	for _, it := range s {
		b.WriteByte(byte(it))
		b.WriteByte(byte(it >> 8))
		b.WriteByte(byte(it >> 16))
		b.WriteByte(byte(it >> 24))
	}
	return b.String()
}

// String renders the itemset in the paper's notation, e.g. "{1 4 9}".
func (s Itemset) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, it := range s {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(strconv.FormatUint(uint64(it), 10))
	}
	b.WriteByte('}')
	return b.String()
}

// IsCanonical reports whether s is sorted strictly ascending (the invariant
// assumed by all set operations above).
func (s Itemset) IsCanonical() bool {
	for i := 1; i < len(s); i++ {
		if s[i-1] >= s[i] {
			return false
		}
	}
	return true
}
