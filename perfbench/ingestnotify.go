package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"umine/internal/algo"
	"umine/internal/core"
	"umine/internal/dataset"
	"umine/internal/incmine"
	"umine/internal/partition"
	"umine/internal/server"
	"umine/internal/shardrpc"
)

// ingest-notify: the write path beside reads. The dataset is registered
// sharded over two loopback shard servers (the wire code a real ushard
// serves), one SSE subscriber follows a continuous query, and an open loop
// ingests a batch every incPeriod and, incReadDelay later, sends one /mine
// the ingest made cold: it pays the stale-pin delta re-push, the phase-1
// scatter over the wire, the merge and phase 2.
const (
	incDataset   = "accident"
	incScale     = 0.01
	incAlgorithm = "DPNB"
	incShards    = 2
	incBatch     = 2
	incPeriod    = 2 * time.Second
	incReadDelay = time.Second
	// incClients: the subscriber and the open-loop sender; the subscriber
	// holds one connection and the sender's ingests and reads share the
	// other.
	incClients = 2
	// notifyWait bounds how long the run waits for the last diff.
	notifyWait = 60 * time.Second
	// incSetups is how many times a run sets up; setup_s is their median.
	incSetups = 5
)

var (
	incSubThresholds  = core.Thresholds{MinSup: 0.2, PFT: 0.7}
	incReadThresholds = core.Thresholds{MinSup: 0.25, PFT: 0.7}
)

// incFeed is the generated dataset split into the registered head and the
// held-back ingest batches.
type incFeed struct {
	full    *core.Database
	head    int
	batches [][]string // item:prob lines, incBatch per round
}

// snapshot is the database the server holds after v ingests.
func (f *incFeed) snapshot(v uint64) *core.Database {
	return f.full.Slice(0, f.head+int(v)*incBatch)
}

func newIncFeed(full *core.Database, rounds int) (*incFeed, error) {
	head := full.N() - rounds*incBatch
	if head < full.N()/2 {
		return nil, fmt.Errorf("%d transactions are too few for %d ingest rounds", full.N(), rounds)
	}
	var buf bytes.Buffer
	if err := dataset.WriteUncertain(&buf, full.Slice(head, full.N())); err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	f := &incFeed{full: full, head: head}
	for r := 0; r < rounds; r++ {
		f.batches = append(f.batches, lines[r*incBatch:(r+1)*incBatch])
	}
	return f, nil
}

// subscriber follows the SSE /subscribe stream and folds its diffs into the
// result state they describe.
type subscriber struct {
	cancel context.CancelFunc
	done   chan struct{}

	mu       sync.Mutex
	state    map[string]incmine.ResultDelta
	arrivals []arrival
	err      error
	updated  chan struct{} // signalled after each applied diff
}

type arrival struct {
	version uint64
	at      time.Time
}

func itemsetKey(items []int) string { return fmt.Sprint(items) }

// subscribe opens the stream and returns once the snapshot diff arrived.
func subscribe(ctx context.Context, st *stack) (*subscriber, error) {
	q := url.Values{}
	q.Set("dataset", incDataset)
	q.Set("algo", incAlgorithm)
	q.Set("min_sup", strconv.FormatFloat(incSubThresholds.MinSup, 'g', -1, 64))
	q.Set("pft", strconv.FormatFloat(incSubThresholds.PFT, 'g', -1, 64))
	sctx, cancel := context.WithCancel(ctx)
	req, err := http.NewRequestWithContext(sctx, http.MethodGet, st.front.url+"/subscribe?"+q.Encode(), nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := st.client.Do(req)
	if err != nil {
		cancel()
		return nil, fmt.Errorf("subscribing: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("subscribing: HTTP %d", resp.StatusCode)
	}
	s := &subscriber{
		cancel:  cancel,
		done:    make(chan struct{}),
		state:   map[string]incmine.ResultDelta{},
		updated: make(chan struct{}, 1),
	}
	go s.read(resp)
	if err := s.waitVersion(0, notifyWait); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *subscriber) read(resp *http.Response) {
	defer close(s.done)
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 64<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var d incmine.Diff
		if err := json.Unmarshal([]byte(data), &d); err != nil {
			s.fail(fmt.Errorf("decoding diff: %w", err))
			return
		}
		s.apply(d, time.Now())
	}
}

func (s *subscriber) apply(d incmine.Diff, at time.Time) {
	s.mu.Lock()
	for _, e := range d.Entered {
		s.state[itemsetKey(e.Itemset)] = e
	}
	for _, e := range d.Changed {
		s.state[itemsetKey(e.Itemset)] = e
	}
	for _, l := range d.Left {
		delete(s.state, itemsetKey(l))
	}
	s.arrivals = append(s.arrivals, arrival{version: d.Version, at: at})
	s.mu.Unlock()
	select {
	case s.updated <- struct{}{}:
	default:
	}
}

func (s *subscriber) fail(err error) {
	s.mu.Lock()
	s.err = err
	s.mu.Unlock()
}

// notified returns when the first diff at version ≥ v arrived.
func (s *subscriber) notified(v uint64) (time.Time, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, a := range s.arrivals {
		if a.version >= v {
			return a.at, true
		}
	}
	return time.Time{}, false
}

// waitVersion blocks until a diff at version ≥ v arrived, the stream ended
// or the wait ran out.
func (s *subscriber) waitVersion(v uint64, wait time.Duration) error {
	timeout := time.After(wait)
	for {
		if _, ok := s.notified(v); ok {
			return nil
		}
		select {
		case <-s.updated:
		case <-s.done:
			if _, ok := s.notified(v); ok {
				return nil
			}
			s.mu.Lock()
			defer s.mu.Unlock()
			return fmt.Errorf("subscription ended before version %d: %v", v, s.err)
		case <-timeout:
			return fmt.Errorf("no diff for version %d within %v", v, wait)
		}
	}
}

func (s *subscriber) close() {
	s.cancel()
	<-s.done
}

// matches compares the folded state bit for bit with a direct mine's result.
func (s *subscriber) matches(rs *core.ResultSet) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.state) != rs.Len() {
		return fmt.Errorf("subscriber holds %d itemsets, the direct mine %d", len(s.state), rs.Len())
	}
	for _, r := range rs.Results {
		items := make([]int, len(r.Itemset))
		for i, it := range r.Itemset {
			items[i] = int(it)
		}
		got, ok := s.state[itemsetKey(items)]
		if !ok {
			return fmt.Errorf("subscriber misses %v", r.Itemset)
		}
		fpOK := (got.FreqProb == nil) == math.IsNaN(r.FreqProb) &&
			(got.FreqProb == nil || math.Float64bits(*got.FreqProb) == math.Float64bits(r.FreqProb))
		if math.Float64bits(got.ESup) != math.Float64bits(r.ESup) || math.Float64bits(got.Var) != math.Float64bits(r.Var) || !fpOK {
			return fmt.Errorf("subscriber's %v differs from the direct mine", r.Itemset)
		}
	}
	return nil
}

// incRound is one open-loop round's measurements.
type incRound struct {
	ingestDue time.Time
	ingest    time.Duration // due → acknowledged
	version   uint64
	notify    time.Duration // due → diff arrived
	read      time.Duration // due → answered
	readVer   uint64
	readBody  []byte
	late      []time.Duration
}

// incSetup is one set-up of the workload: the stack, the subscription and
// the set-up's timed steps.
func incSetup(ctx context.Context, feed *incFeed, tr *tracer) (*stack, *subscriber, error) {
	st, err := startStack(incShards, incClients)
	if err != nil {
		return nil, nil, err
	}
	sub, err := func() (*subscriber, error) {
		head := feed.snapshot(0)
		if err := tr.span("server.register", func() error {
			_, err := st.srv.RegisterDatabase(incDataset, head, server.RegisterOptions{Shards: incShards})
			return err
		}); err != nil {
			return nil, err
		}
		// Install the slices on the shards the way the server's first
		// scatter would, so every measured read pays the stale-pin re-push
		// rather than a first install.
		if err := tr.span("shardrpc.first_push", func() error {
			return mineShards(ctx, st.pool, incDataset, 0, head, nil)
		}); err != nil {
			return nil, err
		}
		if err := tr.span("incmine.build", func() error {
			s, err := st.srv.Subscribe(ctx, server.SubscribeRequest{Dataset: incDataset, Algorithm: incAlgorithm, Thresholds: incSubThresholds})
			if err != nil {
				return err
			}
			s.Cancel()
			return nil
		}); err != nil {
			return nil, err
		}
		return subscribe(ctx, st)
	}()
	if err != nil {
		st.close()
		return nil, nil, err
	}
	return st, sub, nil
}

// mineShards runs the read query's phase-1 mine on every shard of db through
// a pool backend pinned to (dataset, version), recording each call as a
// shardrpc.mine_shard span when tr is non-nil.
func mineShards(ctx context.Context, pool *shardrpc.Pool, name string, version uint64, db *core.Database, tr *tracer) error {
	be, err := pool.Backend(name, version, db, incShards, shardrpc.Hooks{}, nil)
	if err != nil {
		return err
	}
	phase1, _ := algo.PartitionPhase1(incAlgorithm)
	th1, err := algo.Phase1ThresholdsFor(incAlgorithm, incReadThresholds, db.N())
	if err != nil {
		return err
	}
	for i := 0; i < incShards; i++ {
		d, err := timed(func() error {
			_, _, err := be.MineShard(ctx, i, phase1, th1, -1)
			return err
		})
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		if tr != nil {
			tr.record(fmt.Sprintf("shardrpc.mine_shard.v%d", version), d)
		}
	}
	return nil
}

func runIngestNotify(ctx context.Context, opts options) (*report, error) {
	scale := incScale
	if opts.short {
		scale = 0.004
	}
	rounds := int(math.Ceil(opts.seconds.Seconds() / incPeriod.Seconds()))
	tr := newTracer()
	var (
		st     *stack
		sub    *subscriber
		feed   *incFeed
		setups []float64
	)
	closeAll := func() {
		if sub != nil {
			sub.close()
		}
		if st != nil {
			st.close()
		}
	}
	for i := 0; i < setupReps(opts, incSetups); i++ {
		closeAll()
		settle()
		t0 := time.Now()
		var full *core.Database
		tr.span("dataset.generate", func() error {
			full = dataset.Profiles[incDataset].GenerateUncertain(scale, opts.seed)
			return nil
		})
		var err error
		if feed, err = newIncFeed(full, rounds); err != nil {
			return nil, err
		}
		if st, sub, err = incSetup(ctx, feed, tr); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer closeAll()

	var t tally
	stats0 := st.srv.Stats()
	push0, mine0 := st.pool.BytesPushed(), st.pool.BytesMineRequests()
	w := startWindow()
	runs := make([]incRound, rounds)
	for k := range runs {
		r := &runs[k]
		r.ingestDue = w.start.Add(time.Duration(k) * incPeriod)
		r.late = append(r.late, sleepUntil(r.ingestDue))
		rep, err := st.post(ctx, "/ingest", map[string]any{"dataset": incDataset, "transactions": feed.batches[k]})
		r.ingest = time.Since(r.ingestDue)
		if err == nil && rep.status != http.StatusOK {
			err = fmt.Errorf("ingest: HTTP %d: %s", rep.status, bytes.TrimSpace(rep.body))
		}
		if err == nil {
			var res server.IngestResult
			if err = json.Unmarshal(rep.body, &res); err == nil {
				r.version = res.Version
			}
		}
		t.add(err)

		readDue := r.ingestDue.Add(incReadDelay)
		r.late = append(r.late, sleepUntil(readDue))
		rep, err = st.post(ctx, "/mine", newMineBody(incDataset, incAlgorithm, incReadThresholds, false))
		r.read = time.Since(readDue)
		if err == nil && rep.status != http.StatusOK {
			err = fmt.Errorf("read: HTTP %d: %s", rep.status, bytes.TrimSpace(rep.body))
		}
		if err == nil {
			r.readBody = rep.body
			r.readVer, err = strconv.ParseUint(rep.header.Get("X-Umine-Dataset-Version"), 10, 64)
		}
		if err != nil {
			// A failed read is counted here; answered reads are checked
			// against the oracle below.
			t.add(err)
		}
	}
	final := uint64(rounds)
	notifyErr := sub.waitVersion(final, notifyWait)
	w.stop()
	stats1 := st.srv.Stats()
	push1, mine1 := st.pool.BytesPushed(), st.pool.BytesMineRequests()

	// The oracle, off the clock: every answered read against a direct mine
	// of the snapshot it was served from, and the subscriber's folded state
	// against a direct mine of the final snapshot.
	for k := range runs {
		r := &runs[k]
		if r.readBody == nil {
			continue
		}
		ref, err := directMine(ctx, feed.snapshot(r.readVer), incAlgorithm, incReadThresholds, -1, nil)
		if err != nil {
			return nil, fmt.Errorf("reference mine: %w", err)
		}
		want := encode(ref)
		if opts.corrupt && k == 0 {
			want = corruptCopy(want)
		}
		t.add(checkMine(reply{status: http.StatusOK, body: r.readBody}, want))
	}
	if notifyErr == nil {
		ref, err := directMine(ctx, feed.snapshot(final), incAlgorithm, incSubThresholds, -1, nil)
		if err != nil {
			return nil, fmt.Errorf("reference mine: %w", err)
		}
		notifyErr = sub.matches(ref)
	}
	t.add(notifyErr)

	var ingests, notifies, reads, lates []float64
	answered := 0
	for k := range runs {
		r := &runs[k]
		ingests = append(ingests, ms(r.ingest))
		reads = append(reads, ms(r.read))
		if r.readBody != nil {
			answered++
		}
		if at, ok := sub.notified(r.version); ok && r.version > 0 {
			r.notify = at.Sub(r.ingestDue)
			notifies = append(notifies, ms(r.notify))
		}
		for _, l := range r.late {
			lates = append(lates, ms(l))
		}
	}
	rep := newReport(incClients, incClients)
	rep.attempted, rep.failed = t.attempted, t.failed
	if t.firstErr != nil {
		fmt.Fprintf(os.Stderr, "ingest-notify: %d of %d operations failed; first: %v\n", t.failed, t.attempted, t.firstErr)
	}
	if len(notifies) == 0 {
		return nil, errors.New("no ingest was ever notified")
	}
	if !opts.trace {
		rep.set("setup_s", "s", median(setups))
		rep.set("mine_p50_ms", "ms", median(reads))
		// The open loop paces the reads, so this falls only when they
		// cannot keep the schedule.
		rep.set("mine_per_s", "1/s", float64(answered)/w.wall.Seconds())
		rep.set("cpu_ms_per_op", "ms", ms(w.cpu)/float64(2*rounds))
		rep.set("peak_rss_mb", "MB", peakRSSMB())
		return rep, nil
	}

	// Traced run: replay each layer on the run's own snapshots.
	setSetupLayers(rep, tr)
	rep.set("shardrpc.first_push_s", "s", median(tr.ms("shardrpc.first_push"))/1000)
	rep.set("incmine.build_s", "s", median(tr.ms("incmine.build"))/1000)
	if err := incReplays(ctx, st.pool, feed, runs, tr, rep); err != nil {
		return nil, err
	}
	rep.set("server.ingest_ack_ms", "ms", median(ingests))
	rep.set("gen.late_ms", "ms", quantile(lates, 1))
	rep.set("shardrpc.push_bytes", "B", float64(push1-push0)/float64(rounds))
	rep.set("shardrpc.request_bytes", "B", float64(mine1-mine0)/float64(rounds))
	rep.set("server.shard_repushes", "count", float64(stats1.ShardRepushes-stats0.ShardRepushes))
	rep.set("server.notify_p50_ms", "ms", median(notifies))
	rep.set("trace.p50_ms", "ms", median(reads))
	setCacheLayers(rep, stats0, stats1)
	rep.unmeasured(serveLayers...)
	rep.unmeasured(exactLayers...)
	return rep, nil
}

// incReplays times the write path's layers directly on the run's
// snapshots: Server.Ingest on a twin server, a standalone ledger's Update,
// the partition engine and the shard backend per read.
func incReplays(ctx context.Context, pool *shardrpc.Pool, feed *incFeed, runs []incRound, tr *tracer, rep *report) error {
	twin := server.New(serverConfig(nil))
	if _, err := twin.RegisterDatabase(incDataset, feed.snapshot(0), server.RegisterOptions{Shards: incShards}); err != nil {
		return err
	}
	led, err := incmine.New(incmine.Config{Dataset: incDataset, Algorithm: incAlgorithm, Thresholds: incSubThresholds, Workers: -1})
	if err != nil {
		return err
	}
	if _, err := led.Update(ctx, incmine.Snapshot{DB: feed.snapshot(0)}); err != nil {
		return err
	}
	var (
		ingestMS, updateMS, scanned, allowed, tracked, delivery []float64
		fallbacks                                               int
	)
	for k, batch := range feed.batches {
		raw := make([][]core.Unit, len(batch))
		for i, line := range batch {
			if raw[i], err = dataset.ParseUnits(line); err != nil {
				return err
			}
		}
		d, err := timed(func() error {
			_, err := twin.Ingest(ctx, incDataset, raw)
			return err
		})
		if err != nil {
			return err
		}
		ingestMS = append(ingestMS, ms(d))

		v := uint64(k + 1)
		var up *incmine.Refresh
		d, err = timed(func() error {
			var err error
			up, err = led.Update(ctx, incmine.Snapshot{DB: feed.snapshot(v), Version: v})
			return err
		})
		if err != nil {
			return err
		}
		updateMS = append(updateMS, ms(d))
		scanned = append(scanned, float64(up.DeltaScanned))
		allowed = append(allowed, float64(up.Allowed))
		tracked = append(tracked, float64(up.Tracked))
		if up.Fallback {
			fallbacks++
		}
		if r := runs[k]; r.notify > 0 {
			delivery = append(delivery, ms(r.notify-r.ingest-d))
		}
	}
	rep.set("server.ingest_ms", "ms", median(ingestMS))
	rep.set("incmine.update_ms", "ms", median(updateMS))
	rep.set("incmine.delta_scanned", "count", mean(scanned))
	rep.set("incmine.allowed", "count", mean(allowed))
	rep.set("incmine.tracked", "count", mean(tracked))
	rep.set("incmine.fallbacks", "count", float64(fallbacks))
	rep.set("server.notify_delivery_ms", "ms", median(delivery))

	// Per read: the in-process partition engine and the wire phase 1 on the
	// read's snapshot. The shard replay uses its own dataset name, so it
	// never disturbs the pins the server's reads left on the shards.
	const replayName = "replay"
	if err := mineShards(ctx, pool, replayName, 0, feed.snapshot(0), nil); err != nil {
		return err
	}
	var p1, merge, p2, cands, shardMS, unattributed []float64
	for _, r := range runs {
		if r.readBody == nil {
			continue
		}
		db := feed.snapshot(r.readVer)
		eng, err := algo.NewPartitionEngine(incAlgorithm, core.Options{Partitions: incShards, Workers: -1})
		if err != nil {
			return err
		}
		var rs partition.RunStats
		eng.Observe = func(s partition.RunStats) { rs = s }
		if _, err := eng.Mine(ctx, db, incReadThresholds); err != nil {
			return err
		}
		p1 = append(p1, ms(rs.Phase1Elapsed))
		merge = append(merge, ms(rs.MergeElapsed))
		p2 = append(p2, ms(rs.Phase2Elapsed))
		cands = append(cands, float64(rs.Candidates))
		if err := mineShards(ctx, pool, replayName, r.readVer, db, tr); err != nil {
			return err
		}
		spans := tr.ms(fmt.Sprintf("shardrpc.mine_shard.v%d", r.readVer))
		shardMS = append(shardMS, spans...)
		unattributed = append(unattributed, ms(r.read)-quantile(spans, 1)-ms(rs.MergeElapsed)-ms(rs.Phase2Elapsed))
	}
	rep.set("partition.phase1_ms", "ms", median(p1))
	rep.set("partition.merge_ms", "ms", median(merge))
	rep.set("partition.phase2_ms", "ms", median(p2))
	rep.set("partition.candidates", "count", mean(cands))
	rep.set("shardrpc.mine_shard_ms", "ms", median(shardMS))
	rep.set("unattributed_ms", "ms", median(unattributed))
	return nil
}
