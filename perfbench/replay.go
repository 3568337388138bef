package main

import (
	"sort"
	"time"

	"umine/internal/core"
	"umine/internal/kernel"
	"umine/internal/parallel"
)

// kernelReplay is the DP miner's kernel work rebuilt from outside: every
// candidate an exact mine verified, intersected and verified again through
// the kernels' exported entry points.
type kernelReplay struct {
	intersect time.Duration
	dp        time.Duration
	// calls counts FreqTailDP calls: one per exact evaluation.
	calls int
	// probes sums the postings entries the intersections touched.
	probes int
	// accepted counts candidates whose replayed probability clears pft; it
	// must equal the mine's result count.
	accepted int
}

// replayKernels replays the exact verification of a DPNB-style mine of db
// at th from its result set. Level-1 candidates are every item; level-k
// candidates are the Apriori join of the result's (k−1)-itemsets, pruned to
// those whose every (k−1)-subset is a result — exactly what the mine
// generated. Each candidate's per-transaction containment probabilities come
// from kernel.KWay over the vertical postings (collect on) and feed
// kernel.FreqTailDP at the query's minimum support count.
func replayKernels(db *core.Database, rs *core.ResultSet, th core.Thresholds) kernelReplay {
	v := db.Vertical()
	chunk := parallel.ChunkSizeForSpan(db.N(), db.NumUnits())
	msc := th.MinSupCount(db.N())
	var out kernelReplay
	verify := func(cands []core.Itemset) {
		lists := make([]kernel.List, 0, 8)
		for _, x := range cands {
			lists = lists[:0]
			for _, it := range x {
				var l kernel.List
				l.TIDs, l.Probs = v.Postings(it)
				lists = append(lists, l)
			}
			t0 := time.Now()
			agg := kernel.KWay(lists, chunk, true)
			t1 := time.Now()
			fp := kernel.FreqTailDP(agg.Probs, msc)
			out.dp += time.Since(t1)
			out.intersect += t1.Sub(t0)
			out.calls++
			out.probes += agg.Probes
			if fp > th.PFT+core.Eps {
				out.accepted++
			}
		}
	}

	level := make([]core.Itemset, db.NumItems)
	for i := range level {
		level[i] = core.Itemset{core.Item(i)}
	}
	byLen := map[int][]core.Itemset{}
	for _, r := range rs.Results {
		byLen[len(r.Itemset)] = append(byLen[len(r.Itemset)], r.Itemset)
	}
	for k := 1; len(level) > 0; k++ {
		verify(level)
		level = aprioriJoin(byLen[k])
	}
	return out
}

// aprioriJoin returns the (k+1)-candidates of the frequent k-itemsets: pairs
// sharing their first k−1 items, kept when every k-subset is frequent.
func aprioriJoin(frequent []core.Itemset) []core.Itemset {
	if len(frequent) < 2 {
		return nil
	}
	sort.Slice(frequent, func(i, j int) bool { return frequent[i].Compare(frequent[j]) < 0 })
	freq := make(map[string]bool, len(frequent))
	for _, f := range frequent {
		freq[f.Key()] = true
	}
	k := len(frequent[0])
	var out []core.Itemset
	for i, a := range frequent {
		for _, b := range frequent[i+1:] {
			if !a[:k-1].Equal(b[:k-1]) {
				break
			}
			cand := append(a.Clone(), b[k-1])
			if allSubsetsIn(cand, freq) {
				out = append(out, cand)
			}
		}
	}
	return out
}

func allSubsetsIn(cand core.Itemset, freq map[string]bool) bool {
	sub := make(core.Itemset, 0, len(cand)-1)
	for drop := range cand {
		sub = append(sub[:0], cand[:drop]...)
		sub = append(sub, cand[drop+1:]...)
		if !freq[sub.Key()] {
			return false
		}
	}
	return true
}
