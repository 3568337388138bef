package core

import (
	"cmp"
	"slices"
)

// SortResults puts results into canonical order (Itemset.Compare ascending).
// All miners call this before returning so result sets are directly
// comparable.
func SortResults(rs []Result) {
	slices.SortFunc(rs, func(a, b Result) int { return a.Itemset.Compare(b.Itemset) })
}

// FrequencyOrder computes the canonical item reordering used by the
// pattern-growth miners (UFP-growth, UH-Mine): frequent items sorted by
// descending expected support, ties broken by ascending item id. It returns:
//
//   - order: the frequent items in that order;
//   - rank: a slice indexed by Item giving the item's position in order,
//     or -1 for infrequent items.
//
// The ordering matches the paper's example list {C:2.6, A:2.1, F:1.8, B:1.4,
// E:1.3, D:1.2} in Section 3.1.2.
func FrequencyOrder(esup []float64, minESupCount float64) (order []Item, rank []int) {
	for it, e := range esup {
		if e >= minESupCount-Eps {
			order = append(order, Item(it))
		}
	}
	slices.SortFunc(order, func(a, b Item) int {
		if esup[a] != esup[b] {
			return cmp.Compare(esup[b], esup[a])
		}
		return cmp.Compare(a, b)
	})
	rank = make([]int, len(esup))
	for i := range rank {
		rank[i] = -1
	}
	for pos, it := range order {
		rank[it] = pos
	}
	return order, rank
}
