// Package topk implements top-k frequent itemset mining over uncertain
// databases: return the k itemsets with the highest expected support,
// without a user-supplied threshold. Choosing min_esup is the hardest part
// of using a threshold-based miner in practice (the paper's experiments
// sweep it across four orders of magnitude to find informative settings);
// top-k replaces the guess with a budget.
//
// The algorithm is the classical rising-threshold level-wise search adapted
// to expected support: a bounded min-heap holds the best k itemsets seen;
// its minimum is the dynamic threshold. Because expected support is
// anti-monotone (a superset's esup never exceeds a subset's), only itemsets
// whose esup reaches the current threshold can have descendants in the
// final top-k, so the expansion frontier is pruned by the same bound the
// heap maintains. The threshold only rises, making every prune permanently
// safe.
//
// Levels above the first join and count through the Apriori framework
// (apriori.Generate, apriori.Count), so an itemset of length ≥ 2 carries
// UApriori's ESup and Var bits; singletons come from db.ItemESupVar, as
// UH-Mine's and UFP-growth's do.
package topk

import (
	"container/heap"
	"context"
	"fmt"

	"umine/internal/algo/apriori"
	"umine/internal/core"
)

// Miner mines the top-K expected-support frequent itemsets. K must be
// positive; the zero value of the other fields is ready to use.
type Miner struct {
	// K is the number of itemsets to return.
	K int
	// MaxLen bounds the itemset length (0 = unbounded).
	MaxLen int
}

// Mine returns the K itemsets with the highest expected support in
// descending esup order (ties broken canonically), with exact ESup and Var
// filled in. Fewer than K results are returned only when the database has
// fewer distinct itemsets with positive expected support.
func (m *Miner) Mine(db *core.Database) ([]core.Result, core.MiningStats, error) {
	if m.K <= 0 {
		return nil, core.MiningStats{}, fmt.Errorf("topk: K must be positive, got %d", m.K)
	}
	var stats core.MiningStats
	var exec core.ExecStats

	h := &resultHeap{}
	heap.Init(h)
	push := func(r core.Result) {
		if h.Len() < m.K {
			heap.Push(h, r)
			return
		}
		if better(r, (*h)[0]) {
			(*h)[0] = r
			heap.Fix(h, 0)
		}
	}
	threshold := func() float64 {
		if h.Len() < m.K {
			return 0
		}
		return (*h)[0].ESup
	}

	// Level 1: all items in one scan.
	esup, varsup := db.ItemESupVar()
	stats.DBScans++
	var frontier []core.Itemset
	level := make([]core.Result, 0, len(esup))
	for it, e := range esup {
		stats.CandidatesGenerated++
		if e <= 0 {
			continue
		}
		level = append(level, core.Result{Itemset: core.NewItemset(core.Item(it)), ESup: e, Var: varsup[it]})
	}
	for _, r := range level {
		push(r)
	}

	// Higher levels: expand only itemsets that still clear the rising bound.
	for k := 2; ; k++ {
		if m.MaxLen > 0 && k > m.MaxLen {
			break
		}
		frontier = frontier[:0]
		th := threshold()
		for _, r := range level {
			if r.ESup >= th-core.Eps {
				frontier = append(frontier, r.Itemset)
			}
		}
		if len(frontier) < 2 {
			break
		}
		cands := apriori.Generate(frontier, nil, apriori.Config{}, &stats)
		if len(cands) == 0 {
			break
		}
		if err := apriori.Count(context.Background(), db, cands, k, apriori.Config{}, &stats, &exec); err != nil {
			return nil, stats, err
		}
		level = level[:0]
		th = threshold()
		for i := range cands {
			if cands[i].ESup <= 0 {
				continue
			}
			r := core.Result{Itemset: cands[i].Items, ESup: cands[i].ESup, Var: cands[i].Var}
			push(r)
			// Keep for expansion if it can still have top-k descendants.
			if r.ESup >= th-core.Eps {
				level = append(level, r)
			}
		}
		if len(level) == 0 {
			break
		}
	}

	out := make([]core.Result, h.Len())
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(h).(core.Result)
	}
	return out, stats, nil
}

// better orders results by (ESup desc, canonical itemset asc) — the heap
// keeps the k largest under this total order, so results are deterministic
// even among ties.
func better(a, b core.Result) bool {
	if a.ESup != b.ESup {
		return a.ESup > b.ESup
	}
	return a.Itemset.Compare(b.Itemset) < 0
}

// resultHeap is a min-heap under better (its root is the worst kept result).
type resultHeap []core.Result

func (h resultHeap) Len() int            { return len(h) }
func (h resultHeap) Less(i, j int) bool  { return better(h[j], h[i]) }
func (h resultHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *resultHeap) Push(x interface{}) { *h = append(*h, x.(core.Result)) }
func (h *resultHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
