package obsq

import (
	"strings"
	"sync"
	"testing"

	"umine/internal/core"
	"umine/internal/telemetry"
)

// TestCollectorLevelDeltas: cumulative level snapshots become per-step
// deltas; the done event supplies the exact totals and the deepest level.
func TestCollectorLevelDeltas(t *testing.T) {
	col := NewCollector(nil)
	fn := col.Progress()
	fn(core.ProgressEvent{Algorithm: "UApriori", Phase: core.PhaseLevel, Level: 1, Stats: core.MiningStats{
		CandidatesGenerated: 10, DBScans: 1, TransactionsScanned: 100, HorizontalPlans: 1,
	}})
	fn(core.ProgressEvent{Algorithm: "UApriori", Phase: core.PhaseLevel, Level: 2, Stats: core.MiningStats{
		CandidatesGenerated: 25, CandidatesPruned: 3, DBScans: 2, TransactionsScanned: 150, HorizontalPlans: 2, VerticalPlans: 1, PostingsProbed: 40,
	}})
	fn(core.ProgressEvent{Algorithm: "UApriori", Phase: core.PhaseDone, Level: 2, Stats: core.MiningStats{
		CandidatesGenerated: 25, CandidatesPruned: 3, DBScans: 2, TransactionsScanned: 150, HorizontalPlans: 2, VerticalPlans: 1, PostingsProbed: 40,
	}})

	steps, totals, done := col.Snapshot()
	if !done {
		t.Fatal("done event not recorded")
	}
	if len(steps) != 2 {
		t.Fatalf("got %d steps, want 2", len(steps))
	}
	if steps[0].Plan != "horizontal" || steps[0].CandidatesGenerated != 10 || steps[0].TransactionsScanned != 100 {
		t.Errorf("step 1: %+v", steps[0])
	}
	// Step 2 is the delta: 15 new candidates, 50 more transactions, and both
	// plan kinds ran within the step.
	if steps[1].Plan != "mixed" || steps[1].CandidatesGenerated != 15 || steps[1].TransactionsScanned != 50 || steps[1].PostingsProbed != 40 {
		t.Errorf("step 2: %+v", steps[1])
	}
	if totals.CandidatesGenerated != 25 || totals.DBScans != 2 {
		t.Errorf("totals: %+v", totals)
	}
	var ex Explanation
	col.Fill(&ex)
	if ex.MaxLevel != 2 {
		t.Errorf("MaxLevel = %d, want 2", ex.MaxLevel)
	}
}

// TestCollectorPartitionOffset: partition events carry each partition's own
// counters AND advance the baseline, because the partition engine folds the
// summed phase-1 stats into every phase-2 snapshot. Without the baseline
// advance, the first phase-2 level would re-attribute all of phase 1.
func TestCollectorPartitionOffset(t *testing.T) {
	col := NewCollector(nil)
	fn := col.Progress()
	for i := 1; i <= 2; i++ {
		fn(core.ProgressEvent{Phase: core.PhasePartition, Level: i, Stats: core.MiningStats{
			CandidatesGenerated: 5, DBScans: 1, TransactionsScanned: 50,
		}})
	}
	// Phase 2's first snapshot includes the phase-1 offset (10 candidates).
	fn(core.ProgressEvent{Phase: core.PhaseLevel, Level: 1, Stats: core.MiningStats{
		CandidatesGenerated: 12, DBScans: 3, TransactionsScanned: 130,
	}})
	steps, _, _ := col.Snapshot()
	if len(steps) != 3 {
		t.Fatalf("got %d steps, want 3", len(steps))
	}
	if steps[0].Phase != "partition" || steps[0].CandidatesGenerated != 5 {
		t.Errorf("partition step: %+v", steps[0])
	}
	if got := steps[2].CandidatesGenerated; got != 2 {
		t.Errorf("phase-2 level step candidates = %d, want 2 (phase-1 offset removed)", got)
	}
	if got := steps[2].TransactionsScanned; got != 30 {
		t.Errorf("phase-2 level step transactions = %d, want 30", got)
	}
}

// TestCollectorSubtreeClamp: out-of-order subtree snapshots from parallel
// workers never produce negative deltas.
func TestCollectorSubtreeClamp(t *testing.T) {
	col := NewCollector(nil)
	fn := col.Progress()
	fn(core.ProgressEvent{Phase: core.PhaseSubtree, Level: 1, Stats: core.MiningStats{CandidatesGenerated: 20}})
	fn(core.ProgressEvent{Phase: core.PhaseSubtree, Level: 2, Stats: core.MiningStats{CandidatesGenerated: 15}})
	steps, _, _ := col.Snapshot()
	if steps[1].CandidatesGenerated != 0 {
		t.Errorf("out-of-order subtree delta = %d, want clamp to 0", steps[1].CandidatesGenerated)
	}
}

// TestCollectorExecFold: PhaseExec events sum into the scheduler breakdown
// (partitioned queries run several mines, each reporting once) without
// producing plan steps; shard-robustness events produce none either.
func TestCollectorExecFold(t *testing.T) {
	col := NewCollector(nil)
	fn := col.Progress()
	var fresh Explanation
	col.Fill(&fresh)
	if fresh.Sched != nil {
		t.Error("fresh collector reports exec counters")
	}
	fn(core.ProgressEvent{Phase: core.PhaseExec, Exec: core.ExecStats{
		TasksSpawned: 10, TasksStolen: 3,
	}})
	fn(core.ProgressEvent{Phase: core.PhaseExec, Exec: core.ExecStats{
		TasksSpawned: 4, TasksStolen: 1, ForksInline: 2,
	}})
	fn(core.ProgressEvent{Phase: core.PhaseShardRetry, Level: 1})
	steps, _, _ := col.Snapshot()
	if len(steps) != 0 {
		t.Errorf("exec events produced %d plan steps", len(steps))
	}
	var ex Explanation
	col.Fill(&ex)
	if ex.Sched == nil {
		t.Fatal("exec counters not recorded")
	}
	want := core.ExecStats{TasksSpawned: 14, TasksStolen: 4, ForksInline: 2}
	if *ex.Sched != want {
		t.Errorf("exec = %+v, want %+v", *ex.Sched, want)
	}
}

// TestNilCollector: a nil collector chains away to nothing.
func TestNilCollector(t *testing.T) {
	var col *Collector
	if col.Progress() != nil {
		t.Error("nil collector returned a non-nil ProgressFunc")
	}
	if steps, _, done := col.Snapshot(); steps != nil || done {
		t.Error("nil collector Snapshot not empty")
	}
	ex := Explanation{MaxLevel: 7}
	col.Fill(&ex)
	if ex.MaxLevel != 7 || ex.Steps != nil || ex.Sched != nil {
		t.Errorf("nil collector changed the explanation: %+v", ex)
	}
}

// TestCollectorDoneResetsBaseline: one stream carrying several runs (uexp
// -trace observes every measured mine through one collector) attributes
// each run's first step from zero, not from the previous run's totals.
func TestCollectorDoneResetsBaseline(t *testing.T) {
	col := NewCollector(nil)
	fn := col.Progress()
	run := core.MiningStats{CandidatesGenerated: 30, DBScans: 2}
	fn(core.ProgressEvent{Phase: core.PhaseLevel, Level: 1, Stats: run})
	fn(core.ProgressEvent{Phase: core.PhaseDone, Level: 1, Stats: run})
	fn(core.ProgressEvent{Phase: core.PhaseLevel, Level: 1, Stats: core.MiningStats{CandidatesGenerated: 12, DBScans: 1}})
	steps, _, _ := col.Snapshot()
	if len(steps) != 2 {
		t.Fatalf("got %d steps, want 2", len(steps))
	}
	if got := steps[1].CandidatesGenerated; got != 12 {
		t.Errorf("second run's first step candidates = %d, want 12", got)
	}
	if got := steps[1].DBScans; got != 1 {
		t.Errorf("second run's first step db scans = %d, want 1", got)
	}
}

// TestCollectorSpans: with a parent span, checkpoint events become
// completed child spans carrying the algorithm and the step's own
// candidates; shard-robustness phases and the final done event are skipped
// (the shardrpc backend owns those spans). A nil parent records steps only.
func TestCollectorSpans(t *testing.T) {
	tr := telemetry.NewTrace("mine")
	fn := NewCollector(tr.Root()).Progress()
	fn(core.ProgressEvent{Algorithm: "UApriori", Phase: core.PhaseLevel, Level: 1,
		Stats: core.MiningStats{CandidatesGenerated: 8}})
	fn(core.ProgressEvent{Algorithm: "UApriori", Phase: core.PhaseLevel, Level: 2,
		Stats: core.MiningStats{CandidatesGenerated: 50}})
	fn(core.ProgressEvent{Phase: core.PhaseShardRetry})
	fn(core.ProgressEvent{Phase: core.PhaseDone})

	td := tr.Finish()
	if got := len(td.Root.Children); got != 2 {
		t.Fatalf("got %d checkpoint spans, want 2 (robustness + done skipped): %+v", got, td.Root.Children)
	}
	l2, ok := td.Root.Find("level 2")
	if !ok || l2.Attrs["candidates"] != "42" || l2.Attrs["algorithm"] != "UApriori" {
		t.Errorf("level-2 checkpoint span: %+v", l2)
	}

	nilParent := NewCollector(nil)
	nilParent.Progress()(core.ProgressEvent{Phase: core.PhaseLevel, Level: 1})
	if steps, _, _ := nilParent.Snapshot(); len(steps) != 1 {
		t.Errorf("span-less collector recorded %d steps, want 1", len(steps))
	}
}

// TestCollectorSpansConcurrent: parallel miners emit checkpoints from
// worker goroutines; the collector and its spans must be race-free.
func TestCollectorSpansConcurrent(t *testing.T) {
	tr := telemetry.NewTrace("mine")
	col := NewCollector(tr.Root())
	fn := col.Progress()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				fn(core.ProgressEvent{Phase: core.PhaseSubtree, Level: i})
			}
		}()
	}
	wg.Wait()
	if got := len(tr.Finish().Root.Children); got != 400 {
		t.Errorf("got %d spans, want 400", got)
	}
	if steps, _, _ := col.Snapshot(); len(steps) != 400 {
		t.Errorf("got %d steps, want 400", len(steps))
	}
}

// TestShardAttemptsFromSpan: the walk finds "shard N" spans anywhere in the
// tree, emits the shard span itself plus its transport children, and orders
// the timeline by start time.
func TestShardAttemptsFromSpan(t *testing.T) {
	root := telemetry.SpanData{
		Name: "POST /mine",
		Children: []telemetry.SpanData{{
			Name: "phase1",
			Children: []telemetry.SpanData{
				{
					Name: "shard 1", StartUnixNano: 200, DurationMS: 5,
					Children: []telemetry.SpanData{
						{Name: "attempt", StartUnixNano: 210, DurationMS: 2, Attrs: map[string]string{"outcome": "ok", "bytes": "123"}},
					},
				},
				{
					Name: "shard 0", StartUnixNano: 100, DurationMS: 9,
					Children: []telemetry.SpanData{
						{Name: "attempt", StartUnixNano: 110, DurationMS: 1, Attrs: map[string]string{"outcome": "error", "error": "boom"}},
						{Name: "hedge", StartUnixNano: 150, DurationMS: 3, Attrs: map[string]string{"outcome": "ok", "bytes": "77"}},
						{Name: "unrelated", StartUnixNano: 160},
					},
				},
			},
		}},
	}
	got := ShardAttemptsFromSpan(root)
	kinds := make([]string, len(got))
	for i, a := range got {
		kinds[i] = a.Kind
	}
	want := []string{"shard", "attempt", "hedge", "shard", "attempt"}
	if strings.Join(kinds, ",") != strings.Join(want, ",") {
		t.Fatalf("timeline kinds = %v, want %v", kinds, want)
	}
	if got[0].Shard != 0 || got[3].Shard != 1 {
		t.Errorf("shard ordinals: %+v", got)
	}
	if got[1].Error != "boom" || got[2].Bytes != 77 || got[4].Bytes != 123 {
		t.Errorf("attrs lost: %+v", got)
	}
}
