package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"umine/internal/core"
	"umine/internal/dataset"
	"umine/internal/server"
)

// cold-exact: verification-bound mining on the default plan — Apriori
// counting plus exact DP verification of every candidate, the paper's
// Figure-5 regime. Every request bypasses the cache, so HTTP and cache cost
// almost nothing next to the mine.
const (
	coldDataset   = "accident"
	coldScale     = 0.01
	coldAlgorithm = "DPNB"
	coldClients   = 1
	// coldSetups is how many times a run sets up; setup_s is their median.
	coldSetups = 15
	// coldLevels is the deepest Apriori level the query reaches; the traced
	// run reports algo.level1_ms … algo.level<coldLevels>_ms, folding any
	// deeper level into the last.
	coldLevels = 3
)

var coldThresholds = core.Thresholds{MinSup: 0.2, PFT: 0.7}

// progressLog records a mine's Progress stream: when each level ended and
// the final counters.
type progressLog struct {
	mu     sync.Mutex
	start  time.Time
	levels map[int]time.Time
	done   core.MiningStats
}

func newProgressLog() *progressLog {
	return &progressLog{start: time.Now(), levels: map[int]time.Time{}}
}

func (p *progressLog) observe(ev core.ProgressEvent) {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch ev.Phase {
	case core.PhaseLevel:
		p.levels[ev.Level] = time.Now()
	case core.PhaseDone:
		p.done = ev.Stats
	}
}

// levelMS returns each level's wall time, from the previous level's end (or
// the mine's start) to its own level event.
func (p *progressLog) levelMS() map[int]float64 {
	out := map[int]float64{}
	prev := p.start
	for k := 1; ; k++ {
		t, ok := p.levels[k]
		if !ok {
			return out
		}
		out[k] = ms(t.Sub(prev))
		prev = t
	}
}

type coldSample struct {
	rt, elapsed time.Duration
}

func runColdExact(ctx context.Context, opts options) (*report, error) {
	scale := coldScale
	if opts.short {
		scale = 0.002
	}
	tr := newTracer()
	var (
		st     *stack
		db     *core.Database
		setups []float64
	)
	for i := 0; i < setupReps(opts, coldSetups); i++ {
		if st != nil {
			st.close()
		}
		settle()
		t0 := time.Now()
		var err error
		if st, db, err = coldSetup(scale, opts.seed, tr); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer st.close()

	ref, err := directMine(ctx, db, coldAlgorithm, coldThresholds, -1, nil)
	if err != nil {
		return nil, fmt.Errorf("reference mine: %w", err)
	}
	want := encode(ref)
	if opts.corrupt {
		want = corruptCopy(want)
	}

	var (
		t       tally
		samples []coldSample
	)
	stats0 := st.srv.Stats()
	w := startWindow()
	deadline := w.start.Add(opts.seconds)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		r, err := st.post(ctx, "/mine", newMineBody(coldDataset, coldAlgorithm, coldThresholds, true))
		if err == nil {
			err = checkMine(r, want)
		}
		t.add(err)
		samples = append(samples, coldSample{rt: r.rt, elapsed: r.serverElapsed()})
	}
	w.stop()
	stats1 := st.srv.Stats()

	rep := newReport(coldClients, coldClients)
	rep.attempted, rep.failed = t.attempted, t.failed
	if t.firstErr != nil {
		fmt.Fprintf(os.Stderr, "cold-exact: %d of %d requests failed; first: %v\n", t.failed, t.attempted, t.firstErr)
	}
	rts := make([]float64, len(samples))
	for i, s := range samples {
		rts[i] = ms(s.rt)
	}
	if !opts.trace {
		rep.set("setup_s", "s", median(setups))
		rep.set("mine_p50_ms", "ms", median(rts))
		rep.set("mine_per_s", "1/s", float64(len(samples))/w.wall.Seconds())
		rep.set("cpu_ms_per_op", "ms", ms(w.cpu)/float64(len(samples)))
		rep.set("peak_rss_mb", "MB", peakRSSMB())
		return rep, nil
	}

	// Traced run: the same query mined directly, observed level by level,
	// then serially for the scaling number, then replayed through the
	// kernels.
	setSetupLayers(rep, tr)
	plog := newProgressLog()
	cpu0 := cpuTime()
	var rs *core.ResultSet
	wall, err := timed(func() error {
		var err error
		rs, err = directMine(ctx, db, coldAlgorithm, coldThresholds, -1, plog.observe)
		return err
	})
	if err != nil {
		return nil, err
	}
	cpu := cpuTime() - cpu0
	serial, err := timed(func() error {
		_, err := directMine(ctx, db, coldAlgorithm, coldThresholds, 1, nil)
		return err
	})
	if err != nil {
		return nil, err
	}
	rp := replayKernels(db, rs, coldThresholds)
	if rp.calls != plog.done.ExactEvaluations || rp.accepted != rs.Len() {
		return nil, fmt.Errorf("kernel replay diverged: %d DP calls for %d exact evaluations, %d accepted for %d results",
			rp.calls, plog.done.ExactEvaluations, rp.accepted, rs.Len())
	}

	rep.set("algo.mine_ms", "ms", ms(wall))
	levels := plog.levelMS()
	for k := 1; k <= coldLevels; k++ {
		v := levels[k]
		if k == coldLevels {
			for deeper := k + 1; deeper <= len(levels); deeper++ {
				v += levels[deeper]
			}
		}
		rep.set(fmt.Sprintf("algo.level%d_ms", k), "ms", v)
	}
	done := plog.done
	rep.set("algo.candidates", "count", float64(done.CandidatesGenerated))
	rep.set("algo.exact_evaluations", "count", float64(done.ExactEvaluations))
	rep.set("algo.frequent_per_evaluation", "ratio", float64(rs.Len())/float64(done.ExactEvaluations))
	rep.set("algo.postings_probed", "count", float64(done.PostingsProbed))
	rep.set("algo.vertical_plans", "count", float64(done.VerticalPlans))
	rep.set("kernel.dp_ms", "ms", ms(rp.dp))
	rep.set("kernel.dp_calls", "count", float64(rp.calls))
	rep.set("kernel.intersect_ms", "ms", ms(rp.intersect))
	rep.set("kernel.intersect_probes", "count", float64(rp.probes))
	rep.set("parallel.speedup", "ratio", serial.Seconds()/wall.Seconds())
	rep.set("parallel.cpu_utilization", "ratio", cpu.Seconds()/(wall.Seconds()*float64(runtime.NumCPU())))

	var overhead, unattributed []float64
	for _, s := range samples {
		overhead = append(overhead, ms(s.elapsed)-ms(wall))
		unattributed = append(unattributed, ms(s.rt-s.elapsed))
	}
	rep.set("server.overhead_ms", "ms", median(overhead))
	rep.set("unattributed_ms", "ms", median(unattributed))
	rep.set("trace.p50_ms", "ms", median(rts))
	setCacheLayers(rep, stats0, stats1)
	rep.unmeasured(serveLayers...)
	rep.unmeasured(writeLayers...)
	return rep, nil
}

// coldSetup generates the dataset, starts the stack and registers the
// dataset unsharded.
func coldSetup(scale float64, seed int64, tr *tracer) (*stack, *core.Database, error) {
	var db *core.Database
	tr.span("dataset.generate", func() error {
		db = dataset.Profiles[coldDataset].GenerateUncertain(scale, seed)
		return nil
	})
	st, err := startStack(0, coldClients)
	if err != nil {
		return nil, nil, err
	}
	if err := tr.span("server.register", func() error {
		_, err := st.srv.RegisterDatabase(coldDataset, db, server.RegisterOptions{})
		return err
	}); err != nil {
		st.close()
		return nil, nil, err
	}
	return st, db, nil
}
