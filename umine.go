// Package umine is a Go reproduction of "Mining Frequent Itemsets over
// Uncertain Databases" (Tong, Chen, Cheng, Yu; PVLDB 5(11), 2012): a uniform
// implementation platform for the eight representative frequent-itemset
// mining algorithms over uncertain transaction databases, plus the datasets,
// measurement layer and benchmark harness of the paper's experimental study.
//
// # Model
//
// An uncertain transaction database UDB is a list of transactions; each
// transaction is a set of (item, probability) units, the probability being
// the chance the item truly appears in that transaction (the attribute-level
// existential-uncertainty model of §2). The support of an itemset X is then
// a random variable following the Poisson-Binomial distribution with one
// trial per transaction, success probability Pr(X ⊆ T_j) = Π_{x∈X} p_j(x).
//
// The paper's two frequentness definitions are both supported:
//
//   - expected support (Definitions 1–2): X is frequent iff
//     esup(X) = Σ_j Pr(X ⊆ T_j) ≥ N·min_esup;
//   - frequent probability (Definitions 3–4): X is frequent iff
//     Pr{sup(X) ≥ N·min_sup} > pft.
//
// # Algorithms
//
// Ten miner configurations are registered (the paper's eight algorithms,
// with the Chernoff-pruned and unpruned exact variants counted separately):
//
//	expected support:  UApriori, UFP-growth, UH-Mine
//	exact prob.:       DPNB, DPB, DCNB, DCB
//	approximate prob.: PDUApriori, NDUApriori, NDUH-Mine
//
// Construct one with NewMiner and run it with Mine or Measure:
//
//	m, _ := umine.NewMiner("UApriori")
//	rs, _ := m.Mine(ctx, db, umine.Thresholds{MinESup: 0.5})
//	for _, r := range rs.Results {
//	    fmt.Println(r.Itemset, r.ESup)
//	}
//
// # Contexts: cancellation and deadlines
//
// Every mining entry point takes a context.Context and honors it
// cooperatively: miners check the context at their natural checkpoints —
// level boundaries and counting chunks in the Apriori framework, between
// per-candidate DP/DC verifications in the exact miners (the dominant cost
// of the platform), between prefix subtrees and extensions in the
// hyper-structure miners, between header items in UFP-growth's
// conditional-tree walk — so canceling the context (or letting its deadline
// expire) aborts a *running* mine within one chunk/candidate of work. A
// canceled Mine returns ctx.Err() (context.Canceled or
// context.DeadlineExceeded) and leaks no goroutines: the shared worker pool
// stops dispatching and fully drains before returning. A mine that runs to
// completion is byte-for-byte unaffected by the checkpoints.
//
// The convenience wrappers without a ctx parameter (Mine, MineWith,
// Measure, MeasureWith) run under context.Background() — the pre-context
// behavior. Migrating from the previous API is mechanical: m.Mine(db, th)
// becomes m.Mine(ctx, db, th), and umine.MineWith(...)/MeasureWith(...)
// either stay as they are or become MineContext/MeasureContext to gain
// cancellation.
//
// # Progress observability
//
// Options.Progress installs an observer that streams ProgressEvents
// (level/candidate/prune counters) from the run's checkpoints — the hook
// long-lived servers and CLIs use to report liveness and to snapshot
// partial MiningStats when a run is canceled:
//
//	opts := umine.Options{Progress: func(ev umine.ProgressEvent) {
//	    log.Printf("%s level %d: %d candidates", ev.Algorithm, ev.Level,
//	        ev.Stats.CandidatesGenerated)
//	}}
//	rs, err := umine.MineContext(ctx, "DCB", db, th, opts)
//
// # Parallel execution
//
// The paper's platform is single-threaded; this reproduction adds a uniform
// parallel-execution layer as an extension. Every miner accepts an Options
// value whose Workers field bounds the goroutines used for its parallel
// phases (0 or 1 = serial, n > 1 = at most n workers, negative =
// GOMAXPROCS):
//
//	m, _ := umine.NewMinerWith("DCB", umine.Options{Workers: 8})
//	rs, _ := m.Mine(db, umine.Thresholds{MinSup: 0.3, PFT: 0.9})
//
// or, on the command line, via the -workers flag shared by the umine, uexp
// and uverify tools:
//
//	umine -algo DCB -min_sup 0.3 -pft 0.9 -profile accident -workers 8
//	uexp -run ablation-parallel -workers 4
//
// # Partitioned (SON-style) mining
//
// Options.Partitions decomposes a mine into K partition-local passes plus
// one full-database verification restricted to the unioned candidates —
// the SON decomposition, which is exact for expected support (additive
// across partitions) and extended to the probabilistic miners through
// per-family candidate floors (see umine/internal/partition). The merged
// result is bit-identical to a single-shot mine at every K and worker
// count, so partitioning is purely an execution strategy:
//
//	m, _ := umine.NewMinerWith("UApriori", umine.Options{Partitions: 4, Workers: -1})
//	rs, _ := m.Mine(ctx, db, umine.Thresholds{MinESup: 0.01})
//
// or `umine -partitions 4`, `uexp -partitions 4`, and `userve -shards 4`
// (scatter-gather /mine over per-dataset sub-shards). MCSampling is the one
// configuration without partition support (SupportsPartitions reports the
// capability); partition boundaries depend only on (N, K), never on
// Workers, so decompositions are reproducible across machine sizes.
//
// # Serving
//
// Beyond one-shot batch runs, the platform embeds as a long-running
// concurrent mining service (NewServer; the userve command is its HTTP
// face): datasets register once and are shared read-only across requests, a
// monotonicity-aware cache answers higher-threshold queries by filtering
// cached lower-threshold results, identical concurrent queries coalesce
// into one mining job, and ingest appends transactions with a version bump
// that invalidates stale cache entries. See serve.go and
// umine/internal/server.
//
// Parallelism is deterministic by construction: work decompositions depend
// only on the input (never the worker count) and shard merges happen in
// canonical order, so a run with Workers=N returns a ResultSet identical to
// Workers=1 for every registered miner. What parallelizes per family: the
// Apriori-framework miners shard the counting pass over fixed transaction
// chunks, the exact miners (DPNB/DPB/DCNB/DCB) additionally verify each
// candidate's frequent probability concurrently — the dominant cost of the
// whole platform — and the UH-Mine-structure miners fan the first-level
// prefix subtrees out over the pool.
//
// Subpackages of internal/ hold the implementations; this package is the
// stable public surface used by the examples, the CLI tools and the
// benchmark harness.
package umine

import (
	"context"
	"io"

	"umine/internal/algo"
	"umine/internal/core"
	"umine/internal/dataset"
	"umine/internal/eval"
	"umine/internal/exp"
)

// Core data-model types, re-exported.
type (
	// Item is a dense item identifier in [0, NumItems).
	Item = core.Item
	// Itemset is a canonical (sorted, duplicate-free) set of items.
	Itemset = core.Itemset
	// Unit is one (item, probability) entry of an uncertain transaction.
	Unit = core.Unit
	// Transaction is a canonical uncertain transaction.
	Transaction = core.Transaction
	// Database is an immutable uncertain transaction database.
	Database = core.Database
	// Thresholds carries min_esup / min_sup / pft.
	Thresholds = core.Thresholds
	// Semantics selects between the two frequentness definitions.
	Semantics = core.Semantics
	// Result is one mined itemset with its frequentness measures.
	Result = core.Result
	// ResultSet is a mining outcome in canonical itemset order.
	ResultSet = core.ResultSet
	// MiningStats counts algorithm work (candidates, prunes, scans).
	MiningStats = core.MiningStats
	// Miner is the uniform interface implemented by all algorithms.
	Miner = core.Miner
	// Options carries the cross-cutting execution knobs (Workers,
	// Partitions, Progress); the zero value is the paper's
	// single-threaded platform, and no value changes the mined bits.
	Options = core.Options
	// ProgressEvent is one observation streamed during a mining run.
	ProgressEvent = core.ProgressEvent
	// ProgressFunc observes ProgressEvents (see Options.Progress).
	ProgressFunc = core.ProgressFunc
	// ProgressPhase labels where in its run a miner emitted an event.
	ProgressPhase = core.ProgressPhase
	// Measurement is a timed, memory-profiled mining run.
	Measurement = eval.Measurement
	// Accuracy is the precision/recall comparison of §4.4.
	Accuracy = eval.Accuracy
)

// Semantics values.
const (
	// ExpectedSupport is Definition 2 (esup(X) ≥ N × min_esup).
	ExpectedSupport = core.ExpectedSupport
	// Probabilistic is Definition 4 (Pr{sup(X) ≥ N·min_sup} > pft).
	Probabilistic = core.Probabilistic
)

// ProgressPhase values (see core.ProgressEvent).
const (
	// PhaseLevel is a breadth-first level boundary.
	PhaseLevel = core.PhaseLevel
	// PhaseSubtree is one depth-first prefix subtree completing.
	PhaseSubtree = core.PhaseSubtree
	// PhasePartition is one partition of a SON partitioned mine completing
	// its phase-1 pass.
	PhasePartition = core.PhasePartition
	// PhaseShardRetry is a remote shard RPC being retried.
	PhaseShardRetry = core.PhaseShardRetry
	// PhaseShardHedge is a hedged duplicate launched against a straggling
	// shard.
	PhaseShardHedge = core.PhaseShardHedge
	// PhaseShardFailover is a shard's phase-1 mine degrading to the
	// coordinator after exhausted retries.
	PhaseShardFailover = core.PhaseShardFailover
	// PhaseShardRepush is the coordinator re-pushing a slice to a shard
	// that rejected a pinned version (coherent invalidation).
	PhaseShardRepush = core.PhaseShardRepush
	// PhaseDone is the final event of a completed run.
	PhaseDone = core.PhaseDone
)

// NewItemset builds a canonical itemset from the given items.
func NewItemset(items ...Item) Itemset { return core.NewItemset(items...) }

// NewDatabase normalizes raw transactions into a Database.
func NewDatabase(name string, raw [][]Unit) (*Database, error) {
	return core.NewDatabase(name, raw)
}

// MustNewDatabase is NewDatabase panicking on error, for literal data.
func MustNewDatabase(name string, raw [][]Unit) *Database {
	return core.MustNewDatabase(name, raw)
}

// NewMiner constructs a fresh miner by algorithm name. Valid names are
// returned by Algorithms.
func NewMiner(name string) (Miner, error) { return algo.New(name) }

// NewMinerWith constructs a fresh miner by algorithm name, built from the
// given execution options: every miner honors Workers and Progress, and
// Partitions > 1 wraps it in the SON partition engine (except MCSampling,
// which mines single-shot; see SupportsPartitions). Results are identical
// for every Options value.
func NewMinerWith(name string, opts Options) (Miner, error) { return algo.NewWith(name, opts) }

// SupportsPartitions reports whether the named algorithm supports the SON
// partitioned two-phase mine of Options.Partitions. MCSampling is the one
// registered configuration that does not (its per-run sampling sequences
// preclude bit-identity); it silently ignores the knob and mines
// single-shot. Unknown names report false.
func SupportsPartitions(algorithm string) bool {
	return algo.SupportsPartitions(algorithm)
}

// Algorithms lists all registered algorithm names in the paper's order.
func Algorithms() []string { return algo.Names() }

// Mine is the one-call convenience: construct the named miner and run it
// under context.Background() (never canceled — the paper's batch shape).
func Mine(algorithm string, db *Database, th Thresholds) (*ResultSet, error) {
	return MineContext(context.Background(), algorithm, db, th, Options{})
}

// MineWith is Mine with execution options (e.g. a Workers bound).
func MineWith(algorithm string, db *Database, th Thresholds, opts Options) (*ResultSet, error) {
	return MineContext(context.Background(), algorithm, db, th, opts)
}

// MineContext is the full-control entry point: construct the named miner
// with the given options and run it under ctx. Cancellation (or a deadline)
// aborts the run at the miner's next cooperative checkpoint — within one
// chunk/candidate of work — returning ctx.Err() with no goroutine leaks.
func MineContext(ctx context.Context, algorithm string, db *Database, th Thresholds, opts Options) (*ResultSet, error) {
	m, err := algo.NewWith(algorithm, opts)
	if err != nil {
		return nil, err
	}
	return m.Mine(ctx, db, th)
}

// Measure runs one mining execution under the paper's uniform measurement
// layer (wall-clock time, sampled peak heap, retained heap), under
// context.Background().
func Measure(algorithm string, db *Database, th Thresholds) (Measurement, error) {
	return MeasureContext(context.Background(), algorithm, db, th, Options{})
}

// MeasureWith is Measure with execution options (e.g. a Workers bound).
func MeasureWith(algorithm string, db *Database, th Thresholds, opts Options) (Measurement, error) {
	return MeasureContext(context.Background(), algorithm, db, th, opts)
}

// MeasureContext is Measure under a context: a cancellation aborts the
// mine at its next checkpoint and surfaces as Measurement.Err = ctx.Err().
func MeasureContext(ctx context.Context, algorithm string, db *Database, th Thresholds, opts Options) (Measurement, error) {
	m, err := algo.NewWith(algorithm, opts)
	if err != nil {
		return Measurement{}, err
	}
	return eval.Run(ctx, m, db, th), nil
}

// CompareSets computes precision and recall of an approximate result set
// against an exact one (§4.4).
func CompareSets(approx, exact *ResultSet) Accuracy { return eval.CompareSets(approx, exact) }

// GenerateProfile generates an uncertain database shaped like one of the
// paper's Table 6 benchmarks ("connect", "accident", "kosarak", "gazelle")
// at the given scale of its published size, with the Table 7 default
// Gaussian probabilities. See package umine/internal/dataset for the full
// generator surface (custom assigners, the Quest synthetic generator, IO).
func GenerateProfile(name string, scale float64, seed int64) (*Database, error) {
	p, ok := dataset.Profiles[name]
	if !ok {
		return nil, &UnknownProfileError{Name: name}
	}
	return p.GenerateUncertain(scale, seed), nil
}

// ProfileNames lists the Table 6 benchmark profile names.
func ProfileNames() []string {
	out := make([]string, 0, len(dataset.Profiles))
	for _, n := range []string{"connect", "accident", "kosarak", "gazelle"} {
		if _, ok := dataset.Profiles[n]; ok {
			out = append(out, n)
		}
	}
	return out
}

// UnknownProfileError reports a profile name not in ProfileNames.
type UnknownProfileError struct{ Name string }

func (e *UnknownProfileError) Error() string {
	return "umine: unknown benchmark profile " + e.Name
}

// ReadUncertain parses an uncertain transaction database from its text
// format: one transaction per line, space-separated item:prob units.
func ReadUncertain(r io.Reader, name string) (*Database, error) {
	return dataset.ReadUncertain(r, name)
}

// WriteUncertain writes db in the text format accepted by ReadUncertain.
func WriteUncertain(w io.Writer, db *Database) error {
	return dataset.WriteUncertain(w, db)
}

// Experiments lists the ids of every reproducible figure panel and table of
// the paper's Section 4; RunExperiment executes one.
func Experiments() []string { return exp.IDs() }

// RunExperiment runs a paper experiment by id at the default laptop-scale
// configuration and returns its printable report.
func RunExperiment(id string) (string, error) {
	e, ok := exp.Lookup(id)
	if !ok {
		return "", &UnknownExperimentError{ID: id}
	}
	return e.Run(exp.DefaultConfig()).String(), nil
}

// UnknownExperimentError reports an experiment id not in Experiments.
type UnknownExperimentError struct{ ID string }

func (e *UnknownExperimentError) Error() string {
	return "umine: unknown experiment " + e.ID
}
