// Package kernel holds the mining platform's multiply-accumulate inner
// loops: the exact miners' frequentness-probability dynamic program
// (tail.go), and a k-way postings-list intersection (KWay) over the
// arena's vertical mirror (core.VerticalIndex) — extracted so the hot code
// can be tuned — and pinned bitwise — independently of the logic around it.
//
// KWay has a scalar reference in the package tests (scalar_test.go), kept
// verbatim from the loop it was optimized from; the package tests and fuzz
// targets assert the kernel bit-identical to it. The reference is a test
// oracle, not an execution path. The miners count candidates with the
// horizontal trie scan (internal/algo/apriori); KWay's caller is the
// benchmark's kernel replay (perfbench/replay.go), which rebuilds a mine's
// verification work from outside.
//
// # The layout contract
//
// A postings List is two parallel columns — ascending unique TIDs (uint32)
// and the unit probabilities (float64) at the same indices — exactly the
// subslices core.VerticalIndex.Postings returns over its flat backing
// arrays. Contiguity is what the optimizations lean on: the 4-wide
// skip-ahead scans read consecutive elements of one column, so they stride
// linearly through cache lines instead of chasing pointers.
//
// # The grouping contract
//
// Results carry the same floating-point bits as the horizontal counting
// pass's chunk-sharded scan, because the kernel reproduces its
// accumulation structure exactly: per-transaction products multiply in
// canonical item order, the products accumulate in ascending TID order into
// per-chunk partial sums (chunk = tid/chunkSize, with the chunk size the
// counting pass uses, parallel.ChunkSizeForSpan), and the partials fold in
// ascending chunk order. The optimizations therefore never touch the
// arithmetic: they remove the per-match division (a running chunk-boundary
// comparison replaces tid/chunkSize), skip non-matching TIDs four at a
// time, and count cursor probes arithmetically instead of per step. Same
// multiplications, same additions, same order — only fewer instructions
// around them. The benchmark's replay leans on this contract: it fails
// unless its KWay-fed verification accepts exactly the mined itemsets.
package kernel

// List is one item's postings: ascending unique TIDs and the unit
// probabilities at the same indices. Both columns are borrowed views (e.g.
// core.VerticalIndex.Postings subslices) and are never mutated.
type List struct {
	TIDs  []uint32
	Probs []float64
}

// Agg is one intersection's aggregates: chunk-grouped expected-support and
// variance sums, the probe count, and (when requested) the per-transaction
// containment products in ascending TID order.
type Agg struct {
	ESup, Var float64
	// Probs holds the per-transaction products when collect was set (nil
	// otherwise); order is ascending TID, the scan order.
	Probs []float64
	// Probes counts posting-list entries the intersection touched (cursor
	// advances plus head comparisons). Deterministic per input.
	Probes int
}

// KWay intersects k ≥ 2 postings lists, driven by the smallest (first
// minimal length wins, matching the reference's strict-< selection).
// Bit-identical to the scalar reference: products multiply in list
// (= canonical item) order, accumulation is chunk-grouped, the early return
// when a list runs dry happens at the same driving entry, and probes count
// the same touches (driving entries, cursor advances, and the head
// comparison after each advance) — computed per list from cursor deltas
// instead of per step. The mining platform does not call it (its counting
// pass is the horizontal trie scan); the benchmark's kernel replay does.
func KWay(lists []List, chunkSize int, collect bool) Agg {
	var out Agg
	k := len(lists)
	drive := 0
	for i := 1; i < k; i++ {
		if len(lists[i].TIDs) < len(lists[drive].TIDs) {
			drive = i
		}
	}
	if len(lists[drive].TIDs) == 0 {
		return out
	}
	cur := make([]int, k)
	pos := make([]int, k)
	chunkEsup, chunkVar := 0.0, 0.0
	chunkEnd := 0
	for di, tid := range lists[drive].TIDs {
		out.Probes++ // the driving list's entry
		match := true
		for i := 0; i < k; i++ {
			if i == drive {
				pos[i] = di
				continue
			}
			lst := lists[i].TIDs
			n := len(lst)
			j := cur[i]
			// Four-wide skip to the first entry ≥ tid; the reference
			// counts one probe per single-step advance, so the probe
			// delta is exactly j − cur[i].
			for j+4 <= n && lst[j+3] < tid {
				j += 4
			}
			for j < n && lst[j] < tid {
				j++
			}
			out.Probes += j - cur[i]
			cur[i] = j
			if j == n {
				// This list is exhausted: no further TID can match either.
				out.ESup += chunkEsup
				out.Var += chunkVar
				return out
			}
			out.Probes++ // the entry compared against tid
			if lst[j] != tid {
				match = false
				break
			}
			pos[i] = j
		}
		if !match {
			continue
		}
		// Multiply in canonical item order — the trie walk's order — so
		// the product carries the same bits as the horizontal plan.
		p := 1.0
		for i := 0; i < k; i++ {
			p *= lists[i].Probs[pos[i]]
		}
		if int(tid) >= chunkEnd {
			out.ESup += chunkEsup
			out.Var += chunkVar
			chunkEsup, chunkVar = 0, 0
			chunkEnd = (int(tid)/chunkSize + 1) * chunkSize
		}
		chunkEsup += p
		chunkVar += float64(p * (1 - p))
		if collect {
			out.Probs = append(out.Probs, p)
		}
	}
	out.ESup += chunkEsup
	out.Var += chunkVar
	return out
}
