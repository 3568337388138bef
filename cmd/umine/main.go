// Command umine mines frequent itemsets from an uncertain transaction
// database with any of the paper's algorithms.
//
// Input is either a file in the item:prob text format (one transaction per
// line, e.g. "3:0.8 17:0.5 42:0.9") or a generated benchmark profile.
//
// Examples:
//
//	umine -algo UApriori -min_esup 0.5 -input udb.txt
//	umine -algo DCB -min_sup 0.3 -pft 0.9 -profile accident -scale 0.002
//	umine -algo NDUH-Mine -min_sup 0.001 -profile kosarak -scale 0.003 -top 20
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"slices"
	"sort"
	"strings"
	"syscall"

	"umine"
	"umine/internal/obsq"
	"umine/internal/profiling"
	"umine/internal/telemetry"
)

func main() {
	var (
		algoName = flag.String("algo", "UApriori", "algorithm: "+strings.Join(umine.Algorithms(), ", "))
		minESup  = flag.Float64("min_esup", 0, "minimum expected support ratio (expected-support semantics)")
		minSup   = flag.Float64("min_sup", 0, "minimum support ratio (probabilistic semantics)")
		pft      = flag.Float64("pft", 0.9, "probabilistic frequentness threshold")
		input    = flag.String("input", "", "uncertain database file (item:prob per unit, one transaction per line)")
		profile  = flag.String("profile", "", "generate a benchmark profile instead of reading a file: "+strings.Join(umine.ProfileNames(), ", "))
		scale    = flag.Float64("scale", 0.01, "profile scale relative to the published dataset size")
		seed     = flag.Int64("seed", 42, "generator seed")
		top      = flag.Int("top", 0, "print only the top K itemsets by expected support (0 = all)")
		stats    = flag.Bool("stats", false, "print mining statistics (candidates, prunes, scans)")
		format   = flag.String("format", "text", "output format: text, csv, json")
		workers  = flag.Int("workers", 0, "max goroutines for any algorithm's parallel phases (0/1 = serial, -1 = all CPUs); results are identical at every setting")
		parts    = flag.Int("partitions", 0, "SON-style partitioned mine over this many database partitions (0/1 = single-shot); results are bit-identical at every setting")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the mine to this file (go tool pprof)")
		memProf  = flag.String("memprofile", "", "write an allocation profile after the mine to this file (go tool pprof)")
		trace    = flag.Bool("trace", false, "print the finished mine's span tree (indented, with durations) to stderr")
		explain  = flag.Bool("explain", false, "print the executed plan and its cost breakdown as JSON instead of the itemsets")
	)
	flag.Parse()

	db, err := loadDatabase(*input, *profile, *scale, *seed)
	if err != nil {
		fatal(err)
	}

	th := umine.Thresholds{MinESup: *minESup, MinSup: *minSup, PFT: *pft}
	// Warn before mining starts (long runs should not bury the note), but
	// only for valid names — typos get the unknown-algorithm error instead.
	if (*workers > 1 || *workers < 0) && slices.Contains(umine.Algorithms(), *algoName) && !umine.SupportsWorkers(*algoName) {
		fmt.Fprintf(os.Stderr, "umine: note: %s has no parallel phase; -workers is ignored and the run is serial\n", *algoName)
	}
	if *parts > 1 && slices.Contains(umine.Algorithms(), *algoName) && !umine.SupportsPartitions(*algoName) {
		fmt.Fprintf(os.Stderr, "umine: note: %s has no partitioned mode; -partitions is ignored and the mine is single-shot\n", *algoName)
	}

	// SIGINT/SIGTERM cancel the in-flight mine at its next cooperative
	// checkpoint instead of killing the process mid-write; the Progress
	// collector keeps the counters so far, so a canceled run still reports
	// how far it got.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Profiling brackets just the mine (not input parsing/generation), and
	// flushes before the canceled/fatal exits too — os.Exit skips defers.
	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fatal(err)
	}
	// One collector observes the mine: it keeps the partial counters for a
	// canceled run, feeds -explain and, under -trace, records each
	// checkpoint as a span. Partitioned mines instrument themselves from
	// the context span (phase1/shards/merge/phase2), so their collector
	// records no spans.
	var tr *telemetry.Trace
	var parent *telemetry.Span
	if *trace {
		tr = telemetry.NewTrace("umine " + *algoName)
		ctx = telemetry.ContextWithSpan(ctx, tr.Root())
		if *parts <= 1 || !umine.SupportsPartitions(*algoName) {
			parent = tr.Root()
		}
	}
	col := obsq.NewCollector(parent)
	opts := umine.Options{Workers: *workers, Partitions: *parts, Progress: col.Progress()}
	meas, err := umine.MeasureContext(ctx, *algoName, db, th, opts)
	stopProf()
	if tr != nil {
		// Render before error handling so a canceled mine still shows where
		// the time went (open spans carry an "unfinished" attribute).
		td := tr.Finish()
		fmt.Fprintf(os.Stderr, "trace %s:\n", td.TraceID)
		td.Root.Render(os.Stderr)
	}
	if err == nil {
		err = meas.Err
	}
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			fatalCanceled("umine", *algoName, err, col)
		}
		fatal(err)
	}
	if *explain {
		printExplain(db, &meas, col, tr, th, *workers, *parts)
		return
	}
	printResults(db, meas.Results, &meas, *format, *top, *stats)
}

// printExplain renders the executed plan and its cost breakdown as the same
// Explanation document the server's /explain endpoint serves.
func printExplain(db *umine.Database, meas *umine.Measurement, col *obsq.Collector, tr *telemetry.Trace, th umine.Thresholds, workers, parts int) {
	rs := meas.Results
	ex := obsq.Explanation{
		Dataset:    db.Stats().Name,
		Algorithm:  rs.Algorithm,
		Semantics:  rs.Semantics.String(),
		Thresholds: th,
		Workers:    workers,
		Backend:    "local",
		Path:       "mined",
		Itemsets:   rs.Len(),
		ElapsedMS:  float64(meas.Elapsed.Nanoseconds()) / 1e6,
	}
	col.Fill(&ex)
	if parts > 1 && umine.SupportsPartitions(rs.Algorithm) {
		ex.Backend = "sharded"
		ex.Shards = parts
	}
	if tr != nil {
		ex.TraceID = tr.Root().TraceID()
		ex.ShardAttempts = obsq.ShardAttemptsFromSpan(tr.Root().Snapshot())
	}
	buf, err := json.MarshalIndent(&ex, "", "  ")
	if err != nil {
		fatal(err)
	}
	os.Stdout.Write(append(buf, '\n'))
}

// fatalCanceled reports a canceled mine with the partial MiningStats the
// Progress collector captured, then exits nonzero.
func fatalCanceled(tool, algorithm string, err error, col *obsq.Collector) {
	fmt.Fprintf(os.Stderr, "%s: %s mine aborted: %v\n", tool, algorithm, err)
	if steps, s, _ := col.Snapshot(); len(steps) > 0 {
		last := steps[len(steps)-1]
		fmt.Fprintf(os.Stderr, "%s: partial stats (last checkpoint: %s, level %d): candidates=%d pruned=%d chernoff=%d exactEvals=%d dbScans=%d\n",
			tool, last.Phase, last.Level, s.CandidatesGenerated, s.CandidatesPruned, s.ChernoffPruned, s.ExactEvaluations, s.DBScans)
	} else {
		fmt.Fprintf(os.Stderr, "%s: canceled before the first checkpoint; no partial stats\n", tool)
	}
	os.Exit(1)
}

// printResults renders one mining outcome; meas adds the measurement line
// when available.
func printResults(db *umine.Database, rs *umine.ResultSet, meas *umine.Measurement, format string, top int, stats bool) {
	switch format {
	case "csv":
		if err := umine.WriteResultsCSV(os.Stdout, rs); err != nil {
			fatal(err)
		}
		return
	case "json":
		if err := umine.WriteResultsJSON(os.Stdout, rs); err != nil {
			fatal(err)
		}
		return
	case "text":
	default:
		fatal(fmt.Errorf("unknown format %q (text, csv, json)", format))
	}

	st := db.Stats()
	fmt.Printf("database %s: N=%d, items=%d, avg len %.2f, density %.4g\n",
		st.Name, st.NumTrans, st.NumItems, st.AvgLen, st.Density)
	if meas != nil {
		fmt.Printf("%s (%s semantics): %d frequent itemsets in %v, peak heap %.2f MB\n",
			rs.Algorithm, rs.Semantics, rs.Len(), meas.Elapsed, float64(meas.PeakHeapBytes)/(1<<20))
	} else {
		fmt.Printf("%s (%s semantics): %d frequent itemsets\n", rs.Algorithm, rs.Semantics, rs.Len())
	}

	results := rs.Results
	if top > 0 && top < len(results) {
		sorted := append([]umine.Result(nil), results...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].ESup > sorted[j].ESup })
		results = sorted[:top]
	}
	for _, r := range results {
		line := fmt.Sprintf("%v  esup=%.4f", r.Itemset, r.ESup)
		if rs.Semantics == umine.Probabilistic && r.FreqProb == r.FreqProb { // not NaN
			line += fmt.Sprintf("  Pr=%.4f", r.FreqProb)
		}
		fmt.Println(line)
	}
	if stats {
		s := rs.Stats
		fmt.Printf("stats: candidates=%d pruned=%d chernoff=%d exactEvals=%d dbScans=%d trackedPeak=%dB\n",
			s.CandidatesGenerated, s.CandidatesPruned, s.ChernoffPruned, s.ExactEvaluations, s.DBScans, s.PeakTrackedBytes)
	}
}

func loadDatabase(input, profile string, scale float64, seed int64) (*umine.Database, error) {
	switch {
	case input != "" && profile != "":
		return nil, fmt.Errorf("umine: -input and -profile are mutually exclusive")
	case input != "":
		f, err := os.Open(input)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return umine.ReadUncertain(f, input)
	case profile != "":
		return umine.GenerateProfile(profile, scale, seed)
	default:
		return nil, fmt.Errorf("umine: need -input FILE or -profile NAME (see -h)")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "umine:", err)
	os.Exit(1)
}
