package exact

import (
	"fmt"
	"testing"

	"umine/internal/core"
	"umine/internal/dataset"
	"umine/internal/prob"
)

// BenchmarkAblationDCTruncation isolates the DC design decision of keeping
// support-distribution vectors truncated at msc+1 entries with an absorbing
// tail bucket, versus carrying the full N+1-entry distribution through the
// recursion. Exactness of the truncated tail is proved by
// TestDCTruncationExact; this measures what the truncation buys.
func BenchmarkAblationDCTruncation(b *testing.B) {
	db := dataset.Accident.GenerateUncertain(0.002, 9)
	x := topPair(db)
	ps := nonzeroProbs(db, x)
	for _, minSup := range []float64{0.1, 0.3, 0.6} {
		msc := core.Thresholds{MinSup: minSup, PFT: 0.9}.MinSupCount(db.N())
		b.Run(fmt.Sprintf("truncated/min_sup=%.1f", minSup), func(b *testing.B) {
			b.ReportAllocs()
			var fp float64
			for i := 0; i < b.N; i++ {
				fp = freqProbDC(ps, msc)
			}
			b.ReportMetric(fp, "freq-prob")
		})
		b.Run(fmt.Sprintf("full/min_sup=%.1f", minSup), func(b *testing.B) {
			b.ReportAllocs()
			var fp float64
			for i := 0; i < b.N; i++ {
				fp = freqProbDCFull(ps, msc)
			}
			b.ReportMetric(fp, "freq-prob")
		})
	}
}

// freqProbDCFull is the un-truncated baseline: the recursion carries
// complete distributions and the tail is summed at the end.
func freqProbDCFull(ps []float64, msc int) float64 {
	if msc <= 0 {
		return 1
	}
	if msc > len(ps) {
		return 0
	}
	dist := supportDistFull(ps)
	tail := 0.0
	for i := msc; i < len(dist); i++ {
		tail += dist[i]
	}
	if tail > 1 {
		tail = 1
	}
	return tail
}

func supportDistFull(ps []float64) []float64 {
	if len(ps) <= dcLeafSize {
		return prob.PBDist(ps)
	}
	mid := len(ps) / 2
	return prob.Convolve(supportDistFull(ps[:mid]), supportDistFull(ps[mid:]))
}

// TestFreqProbDCFullMatchesTruncated keeps the ablation baseline honest.
func TestFreqProbDCFullMatchesTruncated(t *testing.T) {
	db := dataset.Accident.GenerateUncertain(0.0005, 11)
	x := topPair(db)
	ps := nonzeroProbs(db, x)
	for _, minSup := range []float64{0.05, 0.2, 0.5, 0.9} {
		msc := core.Thresholds{MinSup: minSup, PFT: 0.9}.MinSupCount(db.N())
		a := freqProbDC(ps, msc)
		b := freqProbDCFull(ps, msc)
		if d := a - b; d > 1e-9 || d < -1e-9 {
			t.Fatalf("min_sup %v: truncated %v vs full %v", minSup, a, b)
		}
	}
}

// topPair returns the pair of the two items with the highest expected
// supports — a candidate whose probability vector is long and non-trivial.
func topPair(db *core.Database) core.Itemset {
	esup, _ := db.ItemESupVar()
	best, second := core.Item(0), core.Item(1)
	for it := range esup {
		if esup[it] > esup[best] {
			second, best = best, core.Item(it)
		} else if esup[it] > esup[second] && core.Item(it) != best {
			second = core.Item(it)
		}
	}
	return core.NewItemset(best, second)
}

func nonzeroProbs(db *core.Database, x core.Itemset) []float64 {
	var ps []float64
	for _, p := range db.TxProbs(x) {
		if p > 0 {
			ps = append(ps, p)
		}
	}
	return ps
}
