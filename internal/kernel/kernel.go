// Package kernel holds the mining platform's multiply-accumulate inner
// loops: the vertical counting plan's postings-list intersections over the
// arena's columnar layout (core.VerticalIndex), and the exact miners'
// frequentness-probability dynamic program (tail.go) — extracted so the hot
// code can be tuned — and pinned bitwise — independently of the plan logic
// around it.
//
// Every optimized entry point (Pair, KWay) has a scalar reference in the
// package tests (scalar_test.go) that is the plan's original loop kept
// verbatim; the package tests and fuzz targets assert the kernels
// bit-identical to the references, which are test oracles, not an
// execution path.
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
// Results must carry the same floating-point bits as the horizontal plan's
// chunk-sharded scan, so the kernels reproduce its accumulation structure
// exactly: per-transaction products multiply in canonical item order, the
// products accumulate in ascending TID order into per-chunk partial sums
// (chunk = tid/chunkSize, the parallel.ChunkSizeFor grouping shared by both
// plans), and the partials fold in ascending chunk order. The optimizations
// therefore never touch the arithmetic: they remove the per-match division
// (a running chunk-boundary comparison replaces tid/chunkSize), skip
// non-matching TIDs four at a time, eliminate bounds checks, and count
// cursor probes arithmetically instead of per step. Same multiplications,
// same additions, same order — only fewer instructions around them.
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
	// advances plus head comparisons). Deterministic per input — never
	// dependent on worker count or kernel choice.
	Probes int
}

// pairSkewCutoff is the length ratio above which Pair switches from the
// plain merge to the skip-ahead scan. Measured crossover on x86 is ~1.8 —
// once the long list's cursor advances about two entries per step, the
// lookahead load starts paying — so 2 is the first integer ratio past it.
// A function of the input lists alone — never of worker count — so the
// dispatch is deterministic.
const pairSkewCutoff = 2

// Pair intersects two postings lists — the allocation-free fast path for
// pair candidates, the bulk of any real level-2 load. Bit-identical to the
// scalar reference merge: same merge positions, same products, same
// chunk-grouped accumulation, same probe count (computed arithmetically
// from the final cursor positions: each reference iteration touches
// exactly one entry, so probes = iAdvances + jAdvances − matches =
// i + j − matches).
//
// Two equivalent scan strategies, picked by length skew: lists of similar
// length advance mostly one step at a time, where the 4-wide skip-ahead's
// extra lookahead loads only slow the merge down — the plain merge wins
// there; once one list is pairSkewCutoff× longer, the long list's cursor
// leaps and the skip-ahead pays for itself many times over. Both paths
// compute the identical products in the identical order, so the dispatch
// moves no bits.
func Pair(a, b List, chunkSize int, collect bool) Agg {
	na, nb := len(a.TIDs), len(b.TIDs)
	if na == 0 || nb == 0 {
		return Agg{}
	}
	if na >= nb*pairSkewCutoff || nb >= na*pairSkewCutoff {
		return pairSkip(a, b, chunkSize, collect)
	}
	return pairMerge(a, b, chunkSize, collect)
}

// pairMerge is the balanced-length strategy: a straight two-pointer merge
// with the kernel optimizations that always pay — bounds-check elimination,
// the chunk-boundary comparison replacing the per-match division, and probe
// counting moved out of the loop.
func pairMerge(a, b List, chunkSize int, collect bool) Agg {
	var out Agg
	atids, btids := a.TIDs, b.TIDs
	na, nb := len(atids), len(btids)
	aprobs := a.Probs[:na]
	bprobs := b.Probs[:nb]
	chunkEsup, chunkVar := 0.0, 0.0
	chunkEnd := 0
	matches := 0
	i, j := 0, 0
	for i < na && j < nb {
		at, bt := atids[i], btids[j]
		if at < bt {
			i++
			continue
		}
		if bt < at {
			j++
			continue
		}
		p := float64(aprobs[i] * bprobs[j])
		if int(at) >= chunkEnd {
			out.ESup += chunkEsup
			out.Var += chunkVar
			chunkEsup, chunkVar = 0, 0
			chunkEnd = (int(at)/chunkSize + 1) * chunkSize
		}
		chunkEsup += p
		chunkVar += float64(p * (1 - p))
		if collect {
			out.Probs = append(out.Probs, p)
		}
		matches++
		i++
		j++
	}
	out.ESup += chunkEsup
	out.Var += chunkVar
	out.Probes = i + j - matches
	return out
}

// pairSkip is the skewed-length strategy: the same merge with 4-wide
// skip-ahead on the advancing cursor.
func pairSkip(a, b List, chunkSize int, collect bool) Agg {
	var out Agg
	atids, btids := a.TIDs, b.TIDs
	na, nb := len(atids), len(btids)
	// Bounds-check elimination: pin the probs columns to the TID columns'
	// lengths once, so the indexed loads below are provably in range.
	aprobs := a.Probs[:na]
	bprobs := b.Probs[:nb]
	chunkEsup, chunkVar := 0.0, 0.0
	chunkEnd := 0 // exclusive TID bound of the open chunk; 0 forces the first flush, mirroring the reference's chunk = -1
	matches := 0
	i, j := 0, 0
	for i < na && j < nb {
		at, bt := atids[i], btids[j]
		if at == bt {
			p := float64(aprobs[i] * bprobs[j])
			if int(at) >= chunkEnd {
				// Chunk transition: tids ascend, so "different chunk" is
				// "crossed the boundary" — one division per transition (≤
				// the chunk count) instead of one per match.
				out.ESup += chunkEsup
				out.Var += chunkVar
				chunkEsup, chunkVar = 0, 0
				chunkEnd = (int(at)/chunkSize + 1) * chunkSize
			}
			chunkEsup += p
			chunkVar += float64(p * (1 - p))
			if collect {
				out.Probs = append(out.Probs, p)
			}
			matches++
			i++
			j++
			continue
		}
		if at < bt {
			// Skip-ahead: the reference advances i one comparison at a
			// time; the positions it reaches are the same, so advancing
			// four-wide (then settling) changes nothing but the
			// instruction count.
			i++
			for i+4 <= na && atids[i+3] < bt {
				i += 4
			}
			for i < na && atids[i] < bt {
				i++
			}
		} else {
			j++
			for j+4 <= nb && btids[j+3] < at {
				j += 4
			}
			for j < nb && btids[j] < at {
				j++
			}
		}
	}
	out.ESup += chunkEsup
	out.Var += chunkVar
	out.Probes = i + j - matches
	return out
}

// KWay intersects k ≥ 2 postings lists, driven by the smallest (first
// minimal length wins, matching the reference's strict-< selection).
// Bit-identical to the scalar reference: products multiply in list
// (= canonical item) order, accumulation is chunk-grouped, the early return
// when a list runs dry happens at the same driving entry, and probes count
// the same touches (driving entries, cursor advances, and the head
// comparison after each advance) — computed per list from cursor deltas
// instead of per step.
// KWay stays the generic driver at every k — including 2, where callers
// dispatch to Pair themselves (as the vertical plan does): keeping the
// generic path exercisable at k = 2 is what lets the tests pin the pair
// fast path against it.
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
