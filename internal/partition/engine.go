package partition

import (
	"context"
	"errors"
	"fmt"
	"time"

	"umine/internal/core"
	"umine/internal/parallel"
	"umine/internal/telemetry"
)

// RunStats summarizes one partitioned mine for observers (the serving
// layer's /stats counters, the partition benchmark).
type RunStats struct {
	// Partitions is the number of partitions phase 1 actually mined: empty
	// partitions (K > N leaves trailing ranges empty) are skipped, emit no
	// PhasePartition event, and are not counted.
	Partitions int
	// Phase1Itemsets is the total itemset count reported across all
	// partition-local mines, before deduplication.
	Phase1Itemsets int
	// Candidates is the size of the deduplicated union phase 2 verified.
	Candidates int
	// Phase1Elapsed is the wall-clock time of the partition fan-out,
	// MergeElapsed of the union build, Phase2Elapsed of the restricted
	// full-database verification mine.
	Phase1Elapsed time.Duration
	MergeElapsed  time.Duration
	Phase2Elapsed time.Duration
	// SlowestShard is the wall-clock time of the slowest single partition
	// mine inside phase 1 — the straggler. With enough workers the fan-out
	// finishes when its slowest shard does, so the gap between
	// Phase1Elapsed and SlowestShard is queueing, and a SlowestShard far
	// above the typical shard is the signal a hedged deployment acts on.
	SlowestShard time.Duration
}

// Engine runs the two-phase SON mine for one target algorithm. It
// implements core.Miner, so a configured engine drops in wherever a miner
// does; the hook fields keep the package free of algorithm-registry
// knowledge — umine/internal/algo wires them (NewPartitionEngine), and the
// serving layer overrides MineShard with its shard backend.
type Engine struct {
	// Algorithm is the target algorithm's registry name, reported as
	// Name() and on progress events.
	Algorithm string
	// Sem is the target algorithm's semantics (thresholds validate against
	// it before any work).
	Sem core.Semantics
	// K is the partition count. K ≤ 1 short-circuits to a plain
	// single-shot mine (the identity partitioning).
	K int
	// Workers bounds the goroutines of the phase-1 fan-out and of the
	// phase-2 verification mine (0/1 = serial, negative = GOMAXPROCS).
	// Results are identical for every value.
	Workers int
	// Progress observes the run: one PhasePartition event per completed
	// non-empty partition (carrying that partition's own counters), then
	// the phase-2 miner's ordinary event stream with the accumulated
	// phase-1 counters folded into every snapshot — so the final PhaseDone
	// event carries the exact run totals, matching the returned Stats. May
	// be nil.
	Progress core.ProgressFunc
	// Observe, when non-nil, receives the RunStats of every completed
	// partitioned (K > 1) mine.
	Observe func(RunStats)

	// Phase1Thresholds maps the request thresholds to the phase-1
	// expected-support thresholds (the per-family candidate floor as a
	// ratio; see Phase1Thresholds). Required when K > 1.
	Phase1Thresholds func(th core.Thresholds, n int) (core.Thresholds, error)
	// MineShard mines one partition at the phase-1 thresholds and returns
	// its locally frequent itemsets with the partition's work counters. db
	// is the partition's transaction slice; a process-per-shard backend may
	// ignore it and address the shard by index instead. Called concurrently
	// when Workers allows. Required when K > 1.
	MineShard func(ctx context.Context, shard int, db *core.Database, th core.Thresholds, workers int) ([]core.Itemset, core.MiningStats, error)
	// NewPhase2 constructs the target miner with the given options and —
	// when allow is non-nil — the phase-2 candidate restriction installed.
	// Required.
	NewPhase2 func(opts core.Options, allow func(core.Itemset) bool) (core.Miner, error)
}

// Name implements core.Miner.
func (e *Engine) Name() string { return e.Algorithm }

// Semantics implements core.Miner.
func (e *Engine) Semantics() core.Semantics { return e.Sem }

// shardOutcome collects one partition's phase-1 output in its index slot.
type shardOutcome struct {
	sets    []core.Itemset
	stats   core.MiningStats
	elapsed time.Duration
	err     error
}

// Mine implements core.Miner: the two-phase partitioned mine. A completed
// run is bit-identical to a single-shot mine of the target algorithm; the
// returned Stats accumulate the work actually done (every partition mine
// plus the restricted verification pass), so partitioned counters are
// comparable across K but intentionally differ from a single-shot run's.
//
// Cancellation lands wherever the underlying miners check their context:
// the fan-out stops dispatching partitions once ctx is done and drains
// fully (no goroutine outlives the call), and phase 2 inherits the ordinary
// cooperative checkpoints of the target algorithm.
func (e *Engine) Mine(ctx context.Context, db *core.Database, th core.Thresholds) (*core.ResultSet, error) {
	if err := th.Validate(e.Sem); err != nil {
		return nil, fmt.Errorf("%w: %v", core.ErrUnsupportedThresholds, err)
	}
	opts := core.Options{Workers: e.Workers, Progress: e.Progress}
	if e.K <= 1 || db.N() == 0 {
		m, err := e.NewPhase2(opts, nil)
		if err != nil {
			return nil, err
		}
		return m.Mine(ctx, db, th)
	}

	th1, err := e.Phase1Thresholds(th, db.N())
	if err != nil {
		return nil, err
	}
	ranges := Boundaries(db.N(), e.K)
	// Phase-1 parallelism: the fan-out claims partitions on the shared
	// pool; when more workers are available than partitions, the surplus is
	// divided among the partition-local mines. Neither split affects
	// results — partition miners are deterministic at every worker count.
	perShard := parallel.Resolve(e.Workers) / e.K
	if perShard < 1 {
		perShard = 1
	}

	t0 := time.Now()
	// When the caller's ctx carries a trace span, the phases below appear
	// as its children: phase1 with one "shard i" span per partition (the
	// RPC backend nests its attempt spans under those), then merge, then
	// phase2. A span-less ctx makes every StartSpan a no-op.
	p1ctx, p1span := telemetry.StartSpan(ctx, "phase1")
	// A failing shard cancels its siblings (fail fast — a future RPC
	// backend's dead shard must not cost a full phase-1 pass of wasted
	// work); the scan below then reports the original error, not the
	// induced cancellations.
	fanCtx, cancelFan := context.WithCancel(p1ctx)
	defer cancelFan()
	outs, ferr := parallel.MapCtx(fanCtx, e.Workers, ranges, func(i int, r Range) shardOutcome {
		if r.Len() == 0 {
			return shardOutcome{}
		}
		ts := time.Now()
		sctx, sspan := telemetry.StartSpan(fanCtx, fmt.Sprintf("shard %d", i))
		sets, stats, err := e.MineShard(sctx, i, db.Slice(r.Lo, r.Hi), th1, perShard)
		if err != nil {
			sspan.SetAttr("error", err.Error())
			sspan.End()
			cancelFan()
			return shardOutcome{err: err}
		}
		sspan.SetAttr("itemsets", fmt.Sprint(len(sets)))
		sspan.End()
		e.Progress.Emit(e.Algorithm, core.PhasePartition, i+1, stats)
		return shardOutcome{sets: sets, stats: stats, elapsed: time.Since(ts)}
	})
	p1span.End()
	if err := ctx.Err(); err != nil {
		// The caller's cancellation/deadline outranks any shard error.
		return nil, err
	}
	for _, o := range outs {
		if o.err != nil && !errors.Is(o.err, context.Canceled) {
			return nil, o.err
		}
	}
	if ferr != nil {
		return nil, ferr
	}
	phase1 := time.Since(t0)

	t1 := time.Now()
	union := NewCandidateSet()
	var phase1Itemsets, mined int
	var phase1Stats core.MiningStats
	var slowest time.Duration
	for i, o := range outs {
		if ranges[i].Len() > 0 {
			mined++
		}
		phase1Itemsets += len(o.sets)
		union.Add(o.sets...)
		phase1Stats.Add(o.stats)
		if o.elapsed > slowest {
			slowest = o.elapsed
		}
	}
	merge := time.Since(t1)
	if sp := telemetry.SpanFromContext(ctx); sp != nil {
		sp.Record("merge", t1, time.Now(), [2]string{"candidates", fmt.Sprint(union.Len())})
	}

	t2 := time.Now()
	p2ctx, p2span := telemetry.StartSpan(ctx, "phase2")
	defer p2span.End()
	if e.Progress != nil {
		// Fold the accumulated phase-1 counters into every phase-2
		// snapshot, so observers (and the final PhaseDone event) see the
		// run's true totals, not just the verification pass's.
		outer := e.Progress
		opts.Progress = func(ev core.ProgressEvent) {
			ev.Stats.Add(phase1Stats)
			outer(ev)
		}
	}
	m2, err := e.NewPhase2(opts, union.Contains)
	if err != nil {
		return nil, err
	}
	rs, err := m2.Mine(p2ctx, db, th)
	if err != nil {
		return nil, err
	}
	phase2 := time.Since(t2)
	p2span.End()
	// Honest work accounting: the run's counters cover both phases.
	rs.Stats.Add(phase1Stats)

	if e.Observe != nil {
		e.Observe(RunStats{
			Partitions:     mined,
			Phase1Itemsets: phase1Itemsets,
			Candidates:     union.Len(),
			Phase1Elapsed:  phase1,
			MergeElapsed:   merge,
			Phase2Elapsed:  phase2,
			SlowestShard:   slowest,
		})
	}
	return rs, nil
}
