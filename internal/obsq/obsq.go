// Package obsq is the platform's query-level observability layer: where
// package telemetry answers "where did this request spend its time" with
// span trees and process metrics, obsq answers "why was this query slow" —
// which execution path it took (cache hit, monotone filter, incremental
// ledger, scatter-gather, local fallback), which steps ran a counting pass,
// what it scanned and pruned per level, and what the shard RPCs cost in
// attempts and bytes.
//
// Two pieces:
//
//   - Collector (this file): the one observer that turns the miners'
//     Progress checkpoints into timed, costed steps — no miner changes, zero
//     cost when nobody observes (the nil-ProgressFunc path). Given a parent
//     span it also records each step as a child span over the same
//     interval, so a request's trace and its explanation agree on every
//     step's duration.
//
//   - Explanation (explain.go): the structured /explain (and umine -explain)
//     document: the executed plan as a sequence of costed steps, the run
//     totals, and the shard attempt timeline extracted from the request's
//     span tree ("attempt"/"hedge"/"repush"/"failover" spans with their
//     outcome and bytes attributes).
package obsq

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"umine/internal/core"
	"umine/internal/telemetry"
)

// Step is one costed plan step of an executed query: a level boundary, a
// completed prefix subtree, or one partition's phase-1 mine.
type Step struct {
	// Phase is the checkpoint kind: "level", "subtree" or "partition".
	Phase string `json:"phase"`
	// Level is the candidate length (level), rooting prefix depth (subtree)
	// or 1-based partition ordinal (partition).
	Level int `json:"level"`
	// Plan names the counting plan the step's passes executed:
	// "horizontal", or "" when the step ran no counting pass. The
	// "vertical" and "mixed" labels remain for MiningStats.VerticalPlans,
	// which is always 0 since the vertical plan was retired.
	Plan string `json:"plan,omitempty"`
	// ElapsedMS covers the interval since the previous checkpoint.
	ElapsedMS float64 `json:"elapsed_ms"`
	// The counters are deltas attributable to this step, PeakTrackedBytes
	// excepted: it is the high-water mark observed so far.
	core.MiningStats
}

// Collector accumulates a query's cost breakdown from its progress stream
// and is the one place checkpoints are timed: each level, subtree or
// partition checkpoint closes a step covering the interval since the
// previous one, and with a parent span that same interval is also recorded
// as a child span named "level k", "subtree (depth d)" or "partition p".
// Shard-robustness, exec and done events open no step: the shardrpc backend
// gives the robustness paths their own spans, and the done interval is the
// parent span itself.
//
// It implements the core.ProgressFunc contract (fast, concurrent-safe, no
// event retention beyond copying). Concurrent checkpoints are attributed
// back to back in emission order. The zero Collector is not usable;
// construct with NewCollector.
type Collector struct {
	parent *telemetry.Span

	mu    sync.Mutex
	lastT time.Time
	last  core.MiningStats
	steps []Step
	total core.MiningStats
	exec  core.ExecStats
	hasEx bool
	done  bool
	level int
}

// NewCollector starts a collector; the construction time anchors the first
// step's interval. A nil parent records steps only.
func NewCollector(parent *telemetry.Span) *Collector {
	return &Collector{parent: parent, lastT: time.Now()}
}

// Progress returns the collector's observer function (nil on a nil
// collector, which keeps the miner's disabled path).
func (c *Collector) Progress() core.ProgressFunc {
	if c == nil {
		return nil
	}
	return c.observe
}

func (c *Collector) observe(ev core.ProgressEvent) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	switch ev.Phase {
	case core.PhaseShardRetry, core.PhaseShardHedge, core.PhaseShardFailover, core.PhaseShardRepush:
		return
	case core.PhaseExec:
		// Execution-layer counters (steal traffic, kernel dispatch) arrive
		// once per mining run; partitioned and sharded queries run several
		// mines, so the deltas sum.
		c.exec.Add(ev.Exec)
		c.hasEx = true
		return
	case core.PhaseDone:
		c.total = ev.Stats
		c.done = true
		c.level = ev.Level
		// One stream may carry several runs (uexp -trace observes every
		// measured mine through one collector). The next run's snapshots
		// count from zero again, so its deltas and its first interval must
		// too.
		c.last = core.MiningStats{}
		c.lastT = now
		return
	case core.PhasePartition:
		// Partition events carry the completed partition's own counters, not
		// a cumulative snapshot — use them directly. They also fold into the
		// baseline: the partition engine offsets every phase-2 snapshot by
		// the summed phase-1 stats, so without this the first level step
		// would re-attribute all of phase 1 to itself.
		c.last.Add(ev.Stats)
		c.record(ev, ev.Stats, now)
		return
	}
	// Level/subtree events carry cumulative snapshots; attribute the delta
	// since the previous snapshot to this step. One run's snapshots are
	// monotone (the subtree fan-out emits under one lock); deltas still
	// clamp at zero and the baseline advances field-wise, so a stream that
	// interleaves runs can never go negative.
	delta := subClamp(ev.Stats, c.last)
	delta.PeakTrackedBytes = ev.Stats.PeakTrackedBytes
	c.last = maxStats(c.last, ev.Stats)
	c.record(ev, delta, now)
}

// record closes one step ending at now, and its span when there is a
// parent. c.mu is held.
func (c *Collector) record(ev core.ProgressEvent, d core.MiningStats, now time.Time) {
	c.steps = append(c.steps, Step{
		Phase:       string(ev.Phase),
		Level:       ev.Level,
		Plan:        planLabel(d.HorizontalPlans, d.VerticalPlans),
		ElapsedMS:   float64(now.Sub(c.lastT).Nanoseconds()) / 1e6,
		MiningStats: d,
	})
	if c.parent != nil {
		c.parent.Record(checkpointName(ev), c.lastT, now,
			[2]string{"algorithm", ev.Algorithm},
			[2]string{"candidates", strconv.Itoa(d.CandidatesGenerated)},
		)
	}
	c.lastT = now
}

// checkpointName labels a checkpoint span after its phase and ordinal.
func checkpointName(ev core.ProgressEvent) string {
	switch ev.Phase {
	case core.PhaseLevel:
		return fmt.Sprintf("level %d", ev.Level)
	case core.PhaseSubtree:
		return fmt.Sprintf("subtree (depth %d)", ev.Level)
	case core.PhasePartition:
		return fmt.Sprintf("partition %d", ev.Level)
	}
	return string(ev.Phase)
}

// planLabel names the counting plan(s) a step's deltas reveal.
func planLabel(horizontal, vertical int) string {
	switch {
	case horizontal > 0 && vertical > 0:
		return "mixed"
	case vertical > 0:
		return "vertical"
	case horizontal > 0:
		return "horizontal"
	}
	return ""
}

// subClamp is a field-wise a−b clamped at zero (PeakTrackedBytes carries the
// max, not a difference, and is left to the caller).
func subClamp(a, b core.MiningStats) core.MiningStats {
	return core.MiningStats{
		CandidatesGenerated: max(a.CandidatesGenerated-b.CandidatesGenerated, 0),
		CandidatesPruned:    max(a.CandidatesPruned-b.CandidatesPruned, 0),
		ChernoffPruned:      max(a.ChernoffPruned-b.ChernoffPruned, 0),
		ExactEvaluations:    max(a.ExactEvaluations-b.ExactEvaluations, 0),
		DBScans:             max(a.DBScans-b.DBScans, 0),
		TransactionsScanned: max(a.TransactionsScanned-b.TransactionsScanned, 0),
		PostingsProbed:      max(a.PostingsProbed-b.PostingsProbed, 0),
		HorizontalPlans:     max(a.HorizontalPlans-b.HorizontalPlans, 0),
		VerticalPlans:       max(a.VerticalPlans-b.VerticalPlans, 0),
	}
}

// maxStats is the field-wise maximum — the baseline update that keeps
// deltas non-negative on an interleaved stream.
func maxStats(a, b core.MiningStats) core.MiningStats {
	return core.MiningStats{
		CandidatesGenerated: max(a.CandidatesGenerated, b.CandidatesGenerated),
		CandidatesPruned:    max(a.CandidatesPruned, b.CandidatesPruned),
		ChernoffPruned:      max(a.ChernoffPruned, b.ChernoffPruned),
		ExactEvaluations:    max(a.ExactEvaluations, b.ExactEvaluations),
		DBScans:             max(a.DBScans, b.DBScans),
		TransactionsScanned: max(a.TransactionsScanned, b.TransactionsScanned),
		PostingsProbed:      max(a.PostingsProbed, b.PostingsProbed),
		HorizontalPlans:     max(a.HorizontalPlans, b.HorizontalPlans),
		VerticalPlans:       max(a.VerticalPlans, b.VerticalPlans),
		PeakTrackedBytes:    max(a.PeakTrackedBytes, b.PeakTrackedBytes),
	}
}

// Snapshot returns the collected plan steps, the run totals (the final
// "done" counters when the run completed, the cumulative baseline
// otherwise), and whether a done event was seen.
func (c *Collector) Snapshot() (steps []Step, totals core.MiningStats, done bool) {
	if c == nil {
		return nil, core.MiningStats{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.snapshot()
}

// snapshot is Snapshot with c.mu held.
func (c *Collector) snapshot() (steps []Step, totals core.MiningStats, done bool) {
	steps = append([]Step(nil), c.steps...)
	totals = c.last
	if c.done {
		totals = c.total
	}
	return steps, totals, c.done
}

// Fill writes the executed plan into ex: the steps, the run totals, the
// deepest level the run reported, and the scheduler breakdown when the
// run's miners reported one (miners without tunable execution emit none). A
// nil collector — nothing executed — leaves ex as it is.
func (c *Collector) Fill(ex *Explanation) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	ex.Steps, ex.Totals, _ = c.snapshot()
	ex.MaxLevel = c.level
	if c.hasEx {
		sched := c.exec
		ex.Sched = &sched
	}
}
