package kernel

// The scalar references the optimized kernels are pinned against: the
// vertical plan's original loops, kept verbatim. They define the bits Pair
// and KWay must reproduce, and exist only as test oracles.

// PairScalar is the reference two-pointer merge — the vertical plan's
// original pair loop.
func PairScalar(a, b List, chunkSize int, collect bool) Agg {
	var out Agg
	atids, aprobs := a.TIDs, a.Probs
	btids, bprobs := b.TIDs, b.Probs
	chunkEsup, chunkVar := 0.0, 0.0
	chunk := -1
	i, j := 0, 0
	for i < len(atids) && j < len(btids) {
		at, bt := atids[i], btids[j]
		out.Probes++
		switch {
		case at < bt:
			i++
		case bt < at:
			j++
		default:
			p := aprobs[i] * bprobs[j]
			if c := int(at) / chunkSize; c != chunk {
				out.ESup += chunkEsup
				out.Var += chunkVar
				chunkEsup, chunkVar = 0, 0
				chunk = c
			}
			chunkEsup += p
			chunkVar += p * (1 - p)
			if collect {
				out.Probs = append(out.Probs, p)
			}
			i++
			j++
		}
	}
	out.ESup += chunkEsup
	out.Var += chunkVar
	return out
}

// KWayScalar is the reference k-way intersection — the vertical plan's
// original loop.
func KWayScalar(lists []List, chunkSize int, collect bool) Agg {
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
	chunk := -1
	flush := func() {
		out.ESup += chunkEsup
		out.Var += chunkVar
		chunkEsup, chunkVar = 0, 0
	}
	for di, tid := range lists[drive].TIDs {
		out.Probes++ // the driving list's entry
		match := true
		for i := 0; i < k; i++ {
			if i == drive {
				pos[i] = di
				continue
			}
			j := cur[i]
			lst := lists[i].TIDs
			for j < len(lst) && lst[j] < tid {
				j++
				out.Probes++
			}
			if j < len(lst) {
				out.Probes++ // the entry compared against tid
			}
			cur[i] = j
			if j == len(lst) {
				// This list is exhausted: no further TID can match either.
				flush()
				return out
			}
			if lst[j] != tid {
				match = false
				break
			}
			pos[i] = j
		}
		if !match {
			continue
		}
		p := 1.0
		for i := 0; i < k; i++ {
			p *= lists[i].Probs[pos[i]]
		}
		if c := int(tid) / chunkSize; c != chunk {
			flush()
			chunk = c
		}
		chunkEsup += p
		chunkVar += p * (1 - p)
		if collect {
			out.Probs = append(out.Probs, p)
		}
	}
	flush()
	return out
}
