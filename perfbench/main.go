// Command perfbench is the repository's one benchmark. It drives three
// workloads over real loopback HTTP against an in-process server.Server,
// configured the way `userve -workers -1` configures it, checks every answer
// against a direct in-process mine, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload hot-serve --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1 a
// separate traced run attributes the workload's time to the repository's
// modules by timing calls into their exported functions from this package.
// README.md in this directory lists the workloads, the metrics and the
// layer → end-to-end map.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"umine/internal/benchenv"
	"umine/internal/server"
)

// defaultSeed is the seed used when --seed is not given. README.md names the
// hold-out seed reserved for confirming later claims.
const defaultSeed = 1

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options parameterizes one workload run.
type options struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// short shrinks every input to a few operations (the self-test).
	short bool
	// corrupt flips one byte of one reference body, so every answer checked
	// against it must count as failed (the self-test's oracle check).
	corrupt bool
}

// report is what one workload run measured.
type report struct {
	attempted int
	failed    int
	// clients and conns are the load generator's goroutine and connection
	// counts, stamped on the result.
	clients int
	conns   int
	metrics map[string]metric
}

// setupReps is how many times a workload sets up in one run: setup_s is the
// median of n set-ups, and the last one is the set-up the run measures. The
// self-test sets up once.
func setupReps(opts options, n int) int {
	if opts.short {
		return 1
	}
	return n
}

func newReport(clients, conns int) *report {
	return &report{clients: clients, conns: conns, metrics: map[string]metric{}}
}

func (r *report) set(name, unit string, v float64) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// perLayerUnits gives the unit of every per-layer metric BENCHMARK.json
// names. Every workload's traced run reports all of them.
var perLayerUnits = map[string]string{
	"dataset.generate_s": "s", "server.register_s": "s", "server.warm_s": "s",
	"shardrpc.first_push_s": "s", "incmine.build_s": "s",
	"server.http_us": "us", "server.mine_hit_us": "us", "server.mine_filtered_us": "us",
	"server.cache_hit_ratio": "ratio", "server.cache_filtered_ratio": "ratio",
	"server.cache_miss_ratio": "ratio", "server.cache_evictions": "count",
	"telemetry.overhead_us": "us", "core.encode_us": "us", "core.encode_bytes": "B",
	"algo.mine_ms": "ms", "server.overhead_ms": "ms",
	"algo.level1_ms": "ms", "algo.level2_ms": "ms", "algo.level3_ms": "ms",
	"algo.candidates": "count", "algo.exact_evaluations": "count",
	"algo.frequent_per_evaluation": "ratio", "algo.postings_probed": "count", "algo.vertical_plans": "count",
	"kernel.dp_ms": "ms", "kernel.dp_calls": "count", "kernel.intersect_ms": "ms", "kernel.intersect_probes": "count",
	"parallel.speedup": "ratio", "parallel.cpu_utilization": "ratio",
	"server.ingest_ack_ms": "ms", "server.ingest_ms": "ms",
	"incmine.update_ms": "ms", "incmine.delta_scanned": "count", "incmine.allowed": "count",
	"incmine.tracked": "count", "incmine.fallbacks": "count",
	"server.notify_p50_ms": "ms", "server.notify_delivery_ms": "ms",
	"partition.phase1_ms": "ms", "partition.merge_ms": "ms", "partition.phase2_ms": "ms", "partition.candidates": "count",
	"shardrpc.mine_shard_ms": "ms", "shardrpc.push_bytes": "B", "shardrpc.request_bytes": "B",
	"server.shard_repushes": "count", "gen.late_ms": "ms",
	"unattributed_us": "us", "unattributed_ms": "ms", "trace.p50_ms": "ms",
}

// The per-layer metrics only one workload measures: serveLayers on
// hot-serve, exactLayers on cold-exact, writeLayers on ingest-notify.
var (
	serveLayers = []string{"server.warm_s", "server.http_us", "server.mine_hit_us",
		"server.mine_filtered_us", "telemetry.overhead_us", "core.encode_us", "core.encode_bytes",
		"unattributed_us"}
	exactLayers = []string{"algo.mine_ms", "server.overhead_ms", "algo.level1_ms", "algo.level2_ms",
		"algo.level3_ms", "algo.candidates", "algo.exact_evaluations", "algo.frequent_per_evaluation",
		"algo.postings_probed", "algo.vertical_plans", "kernel.dp_ms", "kernel.dp_calls",
		"kernel.intersect_ms", "kernel.intersect_probes", "parallel.speedup", "parallel.cpu_utilization"}
	writeLayers = []string{"shardrpc.first_push_s", "incmine.build_s", "server.ingest_ack_ms",
		"server.ingest_ms", "incmine.update_ms", "incmine.delta_scanned", "incmine.allowed",
		"incmine.tracked", "incmine.fallbacks", "server.notify_p50_ms", "server.notify_delivery_ms",
		"partition.phase1_ms",
		"partition.merge_ms", "partition.phase2_ms", "partition.candidates", "shardrpc.mine_shard_ms",
		"shardrpc.push_bytes", "shardrpc.request_bytes", "server.shard_repushes", "gen.late_ms"}
)

// unmeasured reports each named per-layer metric as 0: the layer belongs to
// another workload, and this one does not measure it.
func (r *report) unmeasured(names ...string) {
	for _, n := range names {
		unit, ok := perLayerUnits[n]
		if !ok {
			panic("perfbench: unknown per-layer metric " + n)
		}
		r.set(n, unit, 0)
	}
}

// setCacheLayers reports the result cache's share of hits, filtered answers
// and misses among the /mine requests between two Stats snapshots, and the
// entries it dropped: inserts (misses and filtered answers) minus its growth.
// Every workload reports them.
func setCacheLayers(rep *report, s0, s1 server.Stats) {
	reqs := float64(s1.Requests - s0.Requests)
	inserts := (s1.CacheMisses - s0.CacheMisses) + (s1.CacheFiltered - s0.CacheFiltered)
	rep.set("server.cache_hit_ratio", "ratio", float64(s1.CacheHits-s0.CacheHits)/reqs)
	rep.set("server.cache_filtered_ratio", "ratio", float64(s1.CacheFiltered-s0.CacheFiltered)/reqs)
	rep.set("server.cache_miss_ratio", "ratio", float64(s1.CacheMisses-s0.CacheMisses)/reqs)
	rep.set("server.cache_evictions", "count", float64(int64(inserts)-int64(s1.CacheEntries-s0.CacheEntries)))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, options) (*report, error){
	"hot-serve":     runHotServe,
	"cold-exact":    runColdExact,
	"ingest-notify": runIngestNotify,
}

// stamp records what a result was measured on and with.
type stamp struct {
	Workload    string       `json:"workload"`
	Seed        int64        `json:"seed"`
	Seconds     float64      `json:"seconds"`
	Trace       bool         `json:"trace"`
	Commit      string       `json:"commit"`
	Clients     int          `json:"clients"`
	Connections int          `json:"connections"`
	Env         benchenv.Env `json:"env"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: cold-exact, hot-serve or ingest-notify")
		seed     = flag.Int64("seed", defaultSeed, "seed the workload's inputs derive from")
		seconds  = flag.Float64("seconds", 30, "length of the measured window in seconds")
		trace    = flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics; 0 reports end-to-end metrics")
		commit   = flag.String("commit", "unknown", "source commit stamped on the result")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (known: %v)\n", *workload, workloadNames())
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	opts := options{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
	}
	rep, err := run(context.Background(), opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]stamp{"stamp": {
		Workload:    *workload,
		Seed:        *seed,
		Seconds:     *seconds,
		Trace:       opts.trace,
		Commit:      *commit,
		Clients:     rep.clients,
		Connections: rep.conns,
		Env:         benchenv.Capture(),
	}}); err != nil {
		os.Exit(1)
	}
	if err := enc.Encode(result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	}); err != nil {
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
