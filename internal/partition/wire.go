package partition

// The wire format for phase-1 scatter traffic: what a process-per-shard
// deployment (umine/internal/shardrpc) puts on the network when a
// coordinator asks a shard server for its partition-local candidates. The
// thresholds and work counters travel as core.Thresholds and
// core.MiningStats themselves, encoded through their JSON tags, so the
// in-process engine and every remote transport share one type per concept
// and bit-identity proofs about the floors carry over to the RPC deployment
// unchanged. Itemsets get their own encoding here, next to the
// candidate-floor derivations they transport, because a decoded itemset
// must be validated before phase 2 trusts it.
//
// All numbers are carried losslessly: itemsets are integer item lists and
// the float64 threshold ratios round-trip through JSON's number encoding
// (encoding/json formats float64 with full precision), so a remote phase 1
// mines at exactly the thresholds the coordinator derived.

import (
	"fmt"

	"umine/internal/core"
)

// EncodeItemsets converts candidate itemsets to their wire form: one
// uint32 list per itemset, in the order given. core.Itemset is already a
// []core.Item with Item = uint32, so the conversion is shape-only.
func EncodeItemsets(sets []core.Itemset) [][]uint32 {
	out := make([][]uint32, len(sets))
	for i, s := range sets {
		row := make([]uint32, len(s))
		for j, it := range s {
			row[j] = uint32(it)
		}
		out[i] = row
	}
	return out
}

// DecodeItemsets converts wire itemsets back to core form, validating that
// every itemset is canonical (non-empty, strictly ascending): phase 2's
// candidate-set membership keys on the canonical encoding, so a transport
// must never smuggle in a non-canonical itemset that would silently fail
// every Contains lookup.
func DecodeItemsets(rows [][]uint32) ([]core.Itemset, error) {
	out := make([]core.Itemset, len(rows))
	for i, row := range rows {
		if len(row) == 0 {
			return nil, fmt.Errorf("partition: wire itemset %d is empty", i)
		}
		s := make(core.Itemset, len(row))
		for j, it := range row {
			if j > 0 && it <= row[j-1] {
				return nil, fmt.Errorf("partition: wire itemset %d is not canonical (item %d after %d)", i, it, row[j-1])
			}
			s[j] = core.Item(it)
		}
		out[i] = s
	}
	return out, nil
}
