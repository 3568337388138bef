package obsq

import (
	"strings"
	"sync"
	"testing"
	"time"

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

	steps, totals, _, done := col.Snapshot()
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
	steps, _, _, _ := col.Snapshot()
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
	steps, _, _, _ := col.Snapshot()
	if steps[1].CandidatesGenerated != 0 {
		t.Errorf("out-of-order subtree delta = %d, want clamp to 0", steps[1].CandidatesGenerated)
	}
}

// TestCollectorShardEvents: shard-robustness phases land in the event
// timeline, not the plan steps.
func TestCollectorShardEvents(t *testing.T) {
	col := NewCollector(nil)
	fn := col.Progress()
	fn(core.ProgressEvent{Phase: core.PhaseShardRetry, Level: 1})
	fn(core.ProgressEvent{Phase: core.PhaseShardHedge, Level: 0})
	steps, _, events, _ := col.Snapshot()
	if len(steps) != 0 {
		t.Errorf("shard events produced %d plan steps", len(steps))
	}
	if len(events) != 2 || events[0].Kind != "shard-retry" || events[0].Shard != 1 || events[1].Kind != "shard-hedge" {
		t.Errorf("events: %+v", events)
	}
}

// TestCollectorExecFold: PhaseExec events sum into the scheduler breakdown
// (partitioned queries run several mines, each reporting once) without
// producing plan steps.
func TestCollectorExecFold(t *testing.T) {
	col := NewCollector(nil)
	fn := col.Progress()
	var fresh Explanation
	col.Fill(&fresh)
	if fresh.Sched != nil {
		t.Error("fresh collector reports exec counters")
	}
	fn(core.ProgressEvent{Phase: core.PhaseExec, Exec: core.ExecStats{
		TasksSpawned: 10, TasksStolen: 3, KernelIntersects: 100,
	}})
	fn(core.ProgressEvent{Phase: core.PhaseExec, Exec: core.ExecStats{
		TasksSpawned: 4, ForksInline: 2, KernelIntersects: 5,
	}})
	steps, _, _, _ := col.Snapshot()
	if len(steps) != 0 {
		t.Errorf("exec events produced %d plan steps", len(steps))
	}
	var ex Explanation
	col.Fill(&ex)
	if ex.Sched == nil {
		t.Fatal("exec counters not recorded")
	}
	want := core.ExecStats{TasksSpawned: 14, TasksStolen: 3, ForksInline: 2, KernelIntersects: 105}
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
	if steps, _, _, done := col.Snapshot(); steps != nil || done {
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
	steps, _, _, _ := col.Snapshot()
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
	if steps, _, _, _ := nilParent.Snapshot(); len(steps) != 1 {
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
	if steps, _, _, _ := col.Snapshot(); len(steps) != 400 {
		t.Errorf("got %d steps, want 400", len(steps))
	}
}

func TestThresholdBand(t *testing.T) {
	cases := []struct {
		minESup, minSup float64
		want            string
	}{
		{0.05, 0, "1e-2"},
		{0.5, 0, "1e-1"},
		{0, 0.003, "1e-3"},
		{0, 0, "none"},
		{1, 0, "1e0"},
	}
	for _, c := range cases {
		if got := ThresholdBand(c.minESup, c.minSup); got != c.want {
			t.Errorf("ThresholdBand(%g, %g) = %q, want %q", c.minESup, c.minSup, got, c.want)
		}
	}
}

// TestWorkloadDecayAndRatios: arrival weight halves per half-life, the
// cache-hit ratio follows the per-path split, and Snapshot sorts hottest
// first.
func TestWorkloadDecayAndRatios(t *testing.T) {
	now := time.Unix(1_000_000, 0)
	w := NewWorkload(time.Minute)
	w.now = func() time.Time { return now }

	w.Observe(Record{Dataset: "a", Algorithm: "UApriori", MinESup: 0.05, Path: "mined", Latency: 2 * time.Millisecond})
	w.Observe(Record{Dataset: "a", Algorithm: "UApriori", MinESup: 0.05, Path: "cache-hit", Latency: time.Millisecond})
	w.Observe(Record{Dataset: "b", Algorithm: "DPB", MinSup: 0.1, PFT: 0.7, Path: "ledger", Latency: time.Millisecond})

	prof := w.Snapshot()
	if len(prof.Groups) != 2 {
		t.Fatalf("got %d groups, want 2", len(prof.Groups))
	}
	hot := prof.Groups[0]
	if hot.Dataset != "a" || hot.Weight != 2 || hot.Band != "1e-2" {
		t.Errorf("hottest group: %+v", hot)
	}
	if hot.CacheHitRatio != 0.5 {
		t.Errorf("CacheHitRatio = %g, want 0.5", hot.CacheHitRatio)
	}
	if lr := prof.Groups[1].LedgerRatio; lr != 1 {
		t.Errorf("ledger group LedgerRatio = %g, want 1", lr)
	}

	// One half-life on: weights halve.
	now = now.Add(time.Minute)
	prof = w.Snapshot()
	if got := prof.Groups[0].Weight; got < 0.99 || got > 1.01 {
		t.Errorf("decayed weight = %g, want ~1", got)
	}
}

// TestWorkloadEviction: the table caps at maxWorkloadEntries by evicting
// the coldest group.
func TestWorkloadEviction(t *testing.T) {
	now := time.Unix(1_000_000, 0)
	w := NewWorkload(time.Minute)
	w.now = func() time.Time { return now }

	// A hot group, then enough distinct cold groups to overflow the table.
	for i := 0; i < 5; i++ {
		w.Observe(Record{Dataset: "hot", Algorithm: "UApriori", MinESup: 0.05, Path: "mined"})
	}
	for i := 0; i < maxWorkloadEntries; i++ {
		w.Observe(Record{Dataset: "cold", Algorithm: "A" + string(rune('a'+i%26)) + string(rune('a'+i/26)), MinESup: 0.05, Path: "mined"})
	}
	prof := w.Snapshot()
	if len(prof.Groups) > maxWorkloadEntries {
		t.Fatalf("table grew to %d entries, cap is %d", len(prof.Groups), maxWorkloadEntries)
	}
	if prof.Groups[0].Dataset != "hot" {
		t.Errorf("hot group evicted; hottest now %+v", prof.Groups[0])
	}
}

// TestSLOBurnRate: the burn rate is the bad fraction over the budgeted bad
// fraction, per window.
func TestSLOBurnRate(t *testing.T) {
	now := time.Unix(1_000_000, 0)
	slo := NewSLO(100 * time.Millisecond)
	slo.now = func() time.Time { return now }

	for i := 0; i < 98; i++ {
		slo.Observe(10 * time.Millisecond)
	}
	slo.Observe(200 * time.Millisecond) // slow: bad
	slo.ObserveBad()                    // error: bad

	if good, total := slo.Window(SLOWindowShort); good != 98 || total != 100 {
		t.Fatalf("Window = (%d, %d), want (98, 100)", good, total)
	}
	// 2% bad against a 1% budget: burn 2.
	if burn := slo.BurnRate(SLOWindowShort); burn < 1.99 || burn > 2.01 {
		t.Errorf("BurnRate = %g, want 2", burn)
	}

	// Outside the 5m window the short burn drops to 0; the 1h window still
	// sees the traffic.
	now = now.Add(10 * time.Minute)
	if burn := slo.BurnRate(SLOWindowShort); burn != 0 {
		t.Errorf("BurnRate(5m) after 10m = %g, want 0", burn)
	}
	if burn := slo.BurnRate(SLOWindowLong); burn < 1.99 || burn > 2.01 {
		t.Errorf("BurnRate(1h) after 10m = %g, want 2", burn)
	}

	// Ring wrap: traffic older than the ring is forgotten entirely.
	now = now.Add(2 * time.Hour)
	if _, total := slo.Window(SLOWindowLong); total != 0 {
		t.Errorf("total after 2h = %d, want 0", total)
	}
}

// TestSLOConcurrent: Observe and BurnRate race-free under parallel use.
func TestSLOConcurrent(t *testing.T) {
	slo := NewSLO(time.Millisecond)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				slo.Observe(time.Duration(i) * time.Microsecond)
				slo.BurnRate(SLOWindowShort)
			}
		}()
	}
	wg.Wait()
	if _, total := slo.Window(SLOWindowShort); total != 2000 {
		t.Errorf("total = %d, want 2000", total)
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

// TestRenderDashboard: the page renders without a template error and carries
// the live numbers.
func TestRenderDashboard(t *testing.T) {
	var sb strings.Builder
	err := RenderDashboard(&sb, DashboardData{
		Service:        "umine",
		GeneratedAt:    "2026-01-01T00:00:00Z",
		RefreshSeconds: 2,
		SLOs: []DashboardSLO{{
			Route: "mine", TargetMS: 500, Objective: 0.99, Burn5m: 15, Burn1h: 0.5, Good5m: 97, Total5m: 100,
		}},
		Workload: WorkloadProfile{Groups: []WorkloadEntry{{
			Dataset: "gazelle", Algorithm: "UApriori", Band: "1e-2", Weight: 3, CacheHitRatio: 0.5, P99MS: 12,
		}}},
		Sections: []DashboardSection{{Title: "cache", Rows: [][2]string{{"hits", "42"}}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	page := sb.String()
	for _, want := range []string{"umine", "gazelle", "UApriori", "1e-2", "hits", "42", "bad"} {
		if !strings.Contains(page, want) {
			t.Errorf("dashboard page missing %q", want)
		}
	}
}
