// Command uverify cross-checks every registered miner against brute-force
// ground truth on a small database — the "trust but verify" tool for anyone
// modifying an algorithm. Expected-support miners are checked against
// exhaustive itemset enumeration; exact probabilistic miners against the
// reference support-distribution convolution; approximate miners are
// reported with their precision/recall instead of pass/fail (they are
// allowed to err near the decision boundary).
//
// The database comes from a file or a seeded random generator:
//
//	uverify -input small.udb -min_sup 0.3 -pft 0.7
//	uverify -random 30x8 -density 0.5 -seed 7 -min_esup 0.2
//
// The -workers flag (shared with umine/uexp) runs each miner's parallel
// phases on a bounded pool; results are identical at every setting, so the
// verification doubles as a parallel-correctness check.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"umine/internal/algo"
	"umine/internal/core"
	"umine/internal/core/coretest"
	"umine/internal/dataset"
	"umine/internal/eval"
)

func main() {
	var (
		input   = flag.String("input", "", "uncertain database file to verify on")
		random  = flag.String("random", "30x8", "random database shape NxM (N transactions, M items)")
		density = flag.Float64("density", 0.5, "random database item density")
		seed    = flag.Int64("seed", 1, "random generator seed")
		minESup = flag.Float64("min_esup", 0.2, "expected-support threshold to verify at")
		minSup  = flag.Float64("min_sup", 0.3, "probabilistic support threshold to verify at")
		pft     = flag.Float64("pft", 0.7, "probabilistic frequentness threshold")
		workers = flag.Int("workers", 0, "max goroutines for any algorithm's parallel phases (0/1 = serial, -1 = all CPUs); results are identical at every setting")
	)
	flag.Parse()

	db, err := load(*input, *random, *density, *seed)
	if err != nil {
		fatal(err)
	}
	if db.NumItems > 14 {
		fatal(fmt.Errorf("verification enumerates 2^items itemsets; %d items is too many (≤ 14)", db.NumItems))
	}
	st := db.Stats()
	fmt.Printf("verifying on %s: N=%d, items=%d, avg len %.2f\n\n", st.Name, st.NumTrans, st.NumItems, st.AvgLen)

	esTh := core.Thresholds{MinESup: *minESup}
	prTh := core.Thresholds{MinSup: *minSup, PFT: *pft}
	wantES := coretest.BruteForceExpected(db, *minESup)
	wantPR := coretest.BruteForceProbabilistic(db, *minSup, *pft)
	fmt.Printf("ground truth: %d expected-support frequent itemsets (min_esup %v), %d probabilistic (min_sup %v, pft %v)\n\n",
		len(wantES), *minESup, len(wantPR), *minSup, *pft)

	// SIGINT/SIGTERM cancel the in-flight verification mine at its next
	// cooperative checkpoint and exit nonzero, instead of dying mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	failures, completed := 0, 0
	for _, e := range algo.Entries() {
		m := algo.MustNewWith(e.Name, core.Options{Workers: *workers})
		var rs *core.ResultSet
		var err error
		if m.Semantics() == core.ExpectedSupport {
			rs, err = m.Mine(ctx, db, esTh)
		} else {
			rs, err = m.Mine(ctx, db, prTh)
		}
		if errors.Is(err, context.Canceled) {
			fmt.Printf("\ncanceled while verifying %s (%d algorithms checked, %d failures so far)\n",
				e.Name, completed, failures)
			os.Exit(1)
		}
		completed++
		if err != nil {
			fmt.Printf("FAIL %-11s error: %v\n", e.Name, err)
			failures++
			continue
		}
		switch e.Family {
		case algo.ExpectedSupportFamily:
			if msg := compareExact(rs, wantES, false); msg != "" {
				fmt.Printf("FAIL %-11s %s\n", e.Name, msg)
				failures++
			} else {
				fmt.Printf("ok   %-11s %d itemsets, exact match\n", e.Name, rs.Len())
			}
		case algo.ExactFamily:
			if msg := compareExact(rs, wantPR, true); msg != "" {
				fmt.Printf("FAIL %-11s %s\n", e.Name, msg)
				failures++
			} else {
				fmt.Printf("ok   %-11s %d itemsets, exact match (probabilities ±1e-7)\n", e.Name, rs.Len())
			}
		case algo.ApproxFamily:
			ref := &core.ResultSet{Results: wantPR}
			acc := eval.CompareSets(rs, ref)
			verdict := "ok  "
			if acc.Precision < 0.9 || acc.Recall < 0.9 {
				verdict = "WARN"
			}
			fmt.Printf("%s %-11s %d itemsets, precision %.3f recall %.3f (approximate: boundary misses allowed)\n",
				verdict, e.Name, rs.Len(), acc.Precision, acc.Recall)
		}
	}
	if failures > 0 {
		fmt.Printf("\n%d FAILURES\n", failures)
		os.Exit(1)
	}
	fmt.Println("\nall miners verified")
}

func compareExact(rs *core.ResultSet, want []core.Result, checkProb bool) string {
	if rs.Len() != len(want) {
		return fmt.Sprintf("%d itemsets, ground truth %d", rs.Len(), len(want))
	}
	for i := range want {
		got := rs.Results[i]
		if !got.Itemset.Equal(want[i].Itemset) {
			return fmt.Sprintf("itemset %d: %v, ground truth %v", i, got.Itemset, want[i].Itemset)
		}
		if math.Abs(got.ESup-want[i].ESup) > 1e-7 {
			return fmt.Sprintf("%v esup %v, ground truth %v", got.Itemset, got.ESup, want[i].ESup)
		}
		if checkProb && math.Abs(got.FreqProb-want[i].FreqProb) > 1e-7 {
			return fmt.Sprintf("%v freq prob %v, ground truth %v", got.Itemset, got.FreqProb, want[i].FreqProb)
		}
	}
	return ""
}

func load(input, random string, density float64, seed int64) (*core.Database, error) {
	if input != "" {
		f, err := os.Open(input)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return dataset.ReadUncertain(f, input)
	}
	var n, m int
	if _, err := fmt.Sscanf(strings.ToLower(random), "%dx%d", &n, &m); err != nil || n <= 0 || m <= 0 {
		return nil, fmt.Errorf("uverify: -random wants NxM (e.g. 30x8), got %q", random)
	}
	return coretest.RandomDB(rand.New(rand.NewSource(seed)), n, m, density), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "uverify:", err)
	os.Exit(1)
}
