package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"umine/internal/core"
	"umine/internal/dataset"
	"umine/internal/server"
)

// hot-serve: the serving path — HTTP, the result cache, telemetry
// bookkeeping and result encoding — with no mining at all. The cache is
// primed at the base threshold and at every popular threshold during set-up,
// so popular requests are exact hits and pool requests are answered by
// filtering a cached lower-threshold result.
const (
	hotDataset   = "gazelle"
	hotScale     = 0.05
	hotAlgorithm = "UApriori"
	hotBase      = 0.002
	// hotPopular thresholds take hotPopularShare of the requests,
	// Zipf-weighted; the first is the base itself, so the entry every
	// filtered request can fall back to stays the most recently used.
	hotPopular      = 32
	hotPopularShare = 0.9
	// hotPool distinct thresholds take the rest, uniformly: more than the
	// 256-entry cache holds, so they keep taking the filter path, the cache
	// insert and the LRU eviction.
	hotPool    = 512
	hotClients = 2
	// hotSetups is how many times a run sets up; setup_s is their median.
	hotSetups = 15
	// hotDirectReps is how many direct Server.Mine calls the traced run
	// times per threshold class.
	hotDirectReps = 2000
	// hotEncodeEvery: the traced run times encoding for one request in
	// this many. Encoding a ~50 KB answer costs about as much CPU as
	// serving it, so timing every answer on the saturated cores would
	// inflate the very latencies being attributed.
	hotEncodeEvery = 8
)

// hotThresholds returns the popular thresholds (base first) and the pool.
// The two grids never share a value.
func hotThresholds() (popular, pool []float64) {
	for i := 0; i < hotPopular; i++ {
		popular = append(popular, hotBase*(1+float64(8*i)/128))
	}
	for j := 0; j < hotPool; j++ {
		pool = append(pool, hotBase*(1+(float64(j)+0.5)/128))
	}
	return popular, pool
}

// zipfPicker draws popular-threshold indices with weight 1/(rank+1).
type zipfPicker []float64

func newZipfPicker(n int) zipfPicker {
	cum := make(zipfPicker, n)
	total := 0.0
	for i := range cum {
		total += 1 / float64(i+1)
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	return cum
}

func (z zipfPicker) pick(rng *rand.Rand) int {
	u := rng.Float64()
	for i, c := range z {
		if u < c {
			return i
		}
	}
	return len(z) - 1
}

// hotSample is one measured /mine request.
type hotSample struct {
	rt      time.Duration
	elapsed time.Duration
	cache   string
	th      float64
	// encode is the traced run's WriteJSON time for the request's result
	// set; encoded marks the requests it was timed for.
	encode  time.Duration
	encoded bool
}

func runHotServe(ctx context.Context, opts options) (*report, error) {
	scale := hotScale
	if opts.short {
		scale = 0.01
	}
	popular, pool := hotThresholds()
	tr := newTracer()
	var (
		st     *stack
		db     *core.Database
		setups []float64
	)
	for i := 0; i < setupReps(opts, hotSetups); i++ {
		if st != nil {
			st.close()
		}
		settle()
		t0 := time.Now()
		var err error
		if st, db, err = hotSetup(ctx, scale, opts.seed, popular, tr); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer st.close()

	// The oracle, off the clock: one direct mine per threshold.
	refs := map[float64][]byte{}
	sets := map[float64]*core.ResultSet{}
	for _, th := range append(append([]float64(nil), popular...), pool...) {
		rs, err := directMine(ctx, db, hotAlgorithm, core.Thresholds{MinESup: th}, -1, nil)
		if err != nil {
			return nil, fmt.Errorf("reference mine at %g: %w", th, err)
		}
		sets[th], refs[th] = rs, encode(rs)
	}
	if opts.corrupt {
		refs[popular[0]] = corruptCopy(refs[popular[0]])
	}

	zipf := newZipfPicker(hotPopular)
	var (
		t       tally
		mu      sync.Mutex
		samples []hotSample
		wg      sync.WaitGroup
	)
	stats0 := st.srv.Stats()
	w := startWindow()
	deadline := w.start.Add(opts.seconds)
	for c := 0; c < hotClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(opts.seed*1000 + int64(c)))
			var local []hotSample
			var buf bytes.Buffer
			for i := 0; i == 0 || time.Now().Before(deadline); i++ {
				th := pool[rng.Intn(hotPool)]
				if rng.Float64() < hotPopularShare {
					th = popular[zipf.pick(rng)]
				}
				r, err := st.post(ctx, "/mine", newMineBody(hotDataset, hotAlgorithm, core.Thresholds{MinESup: th}, false))
				if err == nil {
					err = checkMine(r, refs[th])
				}
				t.add(err)
				s := hotSample{rt: r.rt, elapsed: r.serverElapsed(), cache: r.header.Get("X-Umine-Cache"), th: th}
				if opts.trace && i%hotEncodeEvery == 0 {
					// The traced run also times encoding the answer's
					// result set, the way the handler does.
					buf.Reset()
					s.encode, _ = timed(func() error { return sets[th].WriteJSON(&buf) })
					s.encoded = true
				}
				local = append(local, s)
			}
			mu.Lock()
			samples = append(samples, local...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	w.stop()
	stats1 := st.srv.Stats()

	rep := newReport(hotClients, hotClients)
	rep.attempted, rep.failed = t.attempted, t.failed
	if t.firstErr != nil {
		fmt.Fprintf(os.Stderr, "hot-serve: %d of %d requests failed; first: %v\n", t.failed, t.attempted, t.firstErr)
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

	// Traced run: attribute the request to the layers.
	setSetupLayers(rep, tr)
	rep.set("server.warm_s", "s", median(tr.ms("server.warm"))/1000)
	hit, filtered, err := hotDirectMines(ctx, st.srv, popular, pool)
	if err != nil {
		return nil, err
	}
	rep.set("server.mine_hit_us", "us", hit)
	rep.set("server.mine_filtered_us", "us", filtered)
	overhead, err := telemetryOverhead(ctx, st.srv, db, popular)
	if err != nil {
		return nil, err
	}
	rep.set("telemetry.overhead_us", "us", overhead)

	var httpUS, encUS, encBytes, unattributed []float64
	for _, s := range samples {
		direct := hit
		if s.cache == server.CacheFiltered {
			direct = filtered
		}
		unattributed = append(unattributed, us(s.elapsed)-direct)
		if s.encoded {
			httpUS = append(httpUS, us(s.rt-s.elapsed-s.encode))
			encUS = append(encUS, us(s.encode))
			encBytes = append(encBytes, float64(len(refs[s.th])))
		}
	}
	rep.set("server.http_us", "us", median(httpUS))
	rep.set("core.encode_us", "us", median(encUS))
	rep.set("core.encode_bytes", "B", mean(encBytes))
	rep.set("unattributed_us", "us", median(unattributed))
	rep.set("trace.p50_ms", "ms", median(rts))
	setCacheLayers(rep, stats0, stats1)
	rep.unmeasured(exactLayers...)
	rep.unmeasured(writeLayers...)
	rep.unmeasured("unattributed_ms")
	return rep, nil
}

// hotSetup generates the dataset, starts the stack, registers the dataset
// and primes the cache at every popular threshold (the base first).
func hotSetup(ctx context.Context, scale float64, seed int64, popular []float64, tr *tracer) (*stack, *core.Database, error) {
	var db *core.Database
	tr.span("dataset.generate", func() error {
		db = dataset.Profiles[hotDataset].GenerateUncertain(scale, seed)
		return nil
	})
	st, err := startStack(0, hotClients)
	if err != nil {
		return nil, nil, err
	}
	err = tr.span("server.register", func() error {
		_, err := st.srv.RegisterDatabase(hotDataset, db, server.RegisterOptions{})
		return err
	})
	if err == nil {
		err = tr.span("server.warm", func() error {
			for _, th := range popular {
				if _, err := st.srv.Mine(ctx, hotRequest(th)); err != nil {
					return err
				}
			}
			return nil
		})
	}
	if err != nil {
		st.close()
		return nil, nil, err
	}
	return st, db, nil
}

func hotRequest(th float64) server.MineRequest {
	return server.MineRequest{Dataset: hotDataset, Algorithm: hotAlgorithm, Thresholds: core.Thresholds{MinESup: th}}
}

// hotDirectMines times direct Server.Mine calls: popular thresholds (exact
// hits) and pool thresholds, classified by the cache outcome the server
// reports. It returns the median microseconds of hits and of filtered
// answers.
func hotDirectMines(ctx context.Context, srv *server.Server, popular, pool []float64) (hit, filtered float64, err error) {
	byCache := map[string][]float64{}
	for i := 0; i < hotDirectReps; i++ {
		for _, th := range []float64{popular[i%len(popular)], pool[i%len(pool)]} {
			t0 := time.Now()
			resp, err := srv.Mine(ctx, hotRequest(th))
			if err != nil {
				return 0, 0, err
			}
			byCache[resp.Cache] = append(byCache[resp.Cache], us(time.Since(t0)))
		}
	}
	return median(byCache[server.CacheHit]), median(byCache[server.CacheFiltered]), nil
}

// telemetryOverhead is the median direct Server.Mine cache hit on the
// measured server (telemetry hub on) minus the same on a twin server with
// Telemetry nil, in microseconds. The two servers alternate call by call.
func telemetryOverhead(ctx context.Context, srv *server.Server, db *core.Database, popular []float64) (float64, error) {
	twinCfg := serverConfig(nil)
	twinCfg.Telemetry = nil
	twin := server.New(twinCfg)
	if _, err := twin.RegisterDatabase(hotDataset, db, server.RegisterOptions{}); err != nil {
		return 0, err
	}
	for _, th := range popular {
		if _, err := twin.Mine(ctx, hotRequest(th)); err != nil {
			return 0, err
		}
	}
	var on, off []float64
	for i := 0; i < hotDirectReps; i++ {
		req := hotRequest(popular[i%len(popular)])
		for _, s := range []*server.Server{srv, twin} {
			t0 := time.Now()
			if _, err := s.Mine(ctx, req); err != nil {
				return 0, err
			}
			d := us(time.Since(t0))
			if s == srv {
				on = append(on, d)
			} else {
				off = append(off, d)
			}
		}
	}
	return median(on) - median(off), nil
}

// setSetupLayers reports the set-up layers every workload shares.
func setSetupLayers(rep *report, tr *tracer) {
	rep.set("dataset.generate_s", "s", median(tr.ms("dataset.generate"))/1000)
	rep.set("server.register_s", "s", median(tr.ms("server.register"))/1000)
}
