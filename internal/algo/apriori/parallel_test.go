package apriori

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"testing"

	"umine/internal/core"
	"umine/internal/dataset"
)

// TestChunkedCountMatchesSerial: the chunked counting pass must reproduce
// core's per-itemset oracle — the aggregates up to summation order, and the
// nonzero containment probabilities in global transaction order.
func TestChunkedCountMatchesSerial(t *testing.T) {
	db := dataset.Accident.GenerateUncertain(0.001, 23)
	for _, workers := range []int{1, 2, 3, 8} {
		chunked := pairCandidates(db, 256)
		var pStats core.MiningStats
		countChunked(context.Background(), db, chunked, 2, true, workers, &pStats)

		for _, p := range chunked {
			esup, v := db.ESupVar(p.Items)
			if math.Abs(esup-p.ESup) > 1e-9 || math.Abs(v-p.Var) > 1e-9 {
				t.Fatalf("workers=%d %v: oracle (%v, %v) vs chunked (%v, %v)",
					workers, p.Items, esup, v, p.ESup, p.Var)
			}
			var want []float64
			for _, q := range db.TxProbs(p.Items) {
				if q != 0 {
					want = append(want, q)
				}
			}
			if len(want) != len(p.Probs) {
				t.Fatalf("workers=%d %v: prob vector lengths %d vs %d",
					workers, p.Items, len(want), len(p.Probs))
			}
			for j := range want {
				if want[j] != p.Probs[j] {
					t.Fatalf("workers=%d %v: prob %d: %v vs %v (order broken)",
						workers, p.Items, j, want[j], p.Probs[j])
				}
			}
		}
	}
}

// TestChunkedCountWorkerIndependent: the chunk layout depends only on the
// database, so aggregates must be bit-identical across worker counts —
// including 1, the serial execution of the same chunked reduction.
func TestChunkedCountWorkerIndependent(t *testing.T) {
	db := dataset.Accident.GenerateUncertain(0.001, 23)
	base := pairCandidates(db, 256)
	ref := cloneCandidates(base)
	var refStats core.MiningStats
	countChunked(context.Background(), db, ref, 2, true, 1, &refStats)
	for _, workers := range []int{2, 5, runtime.GOMAXPROCS(0)} {
		got := cloneCandidates(base)
		var stats core.MiningStats
		countChunked(context.Background(), db, got, 2, true, workers, &stats)
		for i := range ref {
			if ref[i].ESup != got[i].ESup || ref[i].Var != got[i].Var {
				t.Fatalf("workers=%d %v: (%v, %v) vs 1-worker (%v, %v)",
					workers, ref[i].Items, got[i].ESup, got[i].Var, ref[i].ESup, ref[i].Var)
			}
			if len(ref[i].Probs) != len(got[i].Probs) {
				t.Fatalf("workers=%d %v: prob vector lengths %d vs %d",
					workers, ref[i].Items, len(ref[i].Probs), len(got[i].Probs))
			}
			for j := range ref[i].Probs {
				if ref[i].Probs[j] != got[i].Probs[j] {
					t.Fatalf("workers=%d %v: prob %d differs", workers, ref[i].Items, j)
				}
			}
		}
	}
}

// TestRunWithWorkersMatchesSerial: the full level-wise loop with sharded
// counting and a parallel decide step returns the same result set as the
// serial loop.
func TestRunWithWorkersMatchesSerial(t *testing.T) {
	db := dataset.Gazelle.GenerateUncertain(0.01, 29)
	minCount := 0.01 * float64(db.N())
	serial, _, _ := Run(context.Background(), db, Config{Decide: expectedSupportDecide(minCount)})
	parallel, _, _ := Run(context.Background(), db, Config{Decide: expectedSupportDecide(minCount), Workers: 4, ParallelDecide: true})
	if len(serial) != len(parallel) {
		t.Fatalf("serial %d results, parallel %d", len(serial), len(parallel))
	}
	for i := range serial {
		if !serial[i].Itemset.Equal(parallel[i].Itemset) ||
			math.Abs(serial[i].ESup-parallel[i].ESup) > 1e-9 {
			t.Fatalf("result %d differs: %+v vs %+v", i, serial[i], parallel[i])
		}
	}
}

// TestParallelTinyDatabaseFallsBack: fewer transactions than shards must
// not lose or duplicate work.
func TestParallelTinyDatabaseFallsBack(t *testing.T) {
	raw := [][]core.Unit{
		{{Item: 0, Prob: 0.5}, {Item: 1, Prob: 0.5}},
		{{Item: 0, Prob: 0.25}},
	}
	db := core.MustNewDatabase("tiny", raw)
	cands := []Candidate{{Items: core.NewItemset(0)}, {Items: core.NewItemset(1)}}
	var stats core.MiningStats
	Count(context.Background(), db, cands, 1, Config{Workers: 8}, &stats)
	if math.Abs(cands[0].ESup-0.75) > 1e-12 || math.Abs(cands[1].ESup-0.5) > 1e-12 {
		t.Fatalf("tiny parallel counts wrong: %+v", cands)
	}
}

// BenchmarkParallelCounting measures the counting-pass speedup with
// goroutine sharding (an extension beyond the paper's platform).
func BenchmarkParallelCounting(b *testing.B) {
	db := dataset.Accident.GenerateUncertain(0.01, 31)
	cands := pairCandidates(db, 1024)
	for _, workers := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				work := cloneCandidates(cands)
				var stats core.MiningStats
				countChunked(context.Background(), db, work, 2, false, workers, &stats)
			}
		})
	}
}

// TestSerialDecideKeepsCandidateOrder: without ParallelDecide, Run calls
// Decide one candidate at a time, in candidate order, however many Workers
// the counting pass uses — the contract a Decide with sequential state
// (MCSampling's RNG) relies on.
func TestSerialDecideKeepsCandidateOrder(t *testing.T) {
	db := dataset.Accident.GenerateUncertain(0.001, 23)
	minCount := 0.2 * float64(db.N())
	accept := expectedSupportDecide(minCount)
	record := func(workers int) []core.Itemset {
		var seen []core.Itemset
		var inFlight atomic.Int32
		_, _, err := Run(context.Background(), db, Config{
			Workers: workers,
			Decide: func(c *Candidate) (core.Result, Verdict) {
				if n := inFlight.Add(1); n != 1 {
					t.Errorf("workers=%d: %d concurrent Decide calls", workers, n)
				}
				runtime.Gosched()
				seen = append(seen, c.Items)
				res, v := accept(c)
				inFlight.Add(-1)
				return res, v
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return seen
	}
	want := record(1)
	got := record(4)
	if len(got) != len(want) || len(got) < 2 {
		t.Fatalf("Decide called %d times at 4 workers, %d at 1", len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("call %d: Decide got %v, want %v", i, got[i], want[i])
		}
		if i > 0 && len(got[i]) == len(got[i-1]) && got[i-1].Compare(got[i]) >= 0 {
			t.Fatalf("call %d: %v after %v is out of candidate order", i, got[i], got[i-1])
		}
	}
}
