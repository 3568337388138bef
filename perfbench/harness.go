package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"umine/internal/algo"
	"umine/internal/core"
	"umine/internal/server"
	"umine/internal/shardrpc"
	"umine/internal/telemetry"
)

// requestTimeout bounds one benchmark request; a request that runs out
// counts as failed.
const requestTimeout = 60 * time.Second

// serverConfig is the configuration `userve -workers -1` builds: all CPUs
// per request, the default telemetry hub, cache and in-flight limit.
func serverConfig(pool *shardrpc.Pool) server.Config {
	return server.Config{
		DefaultWorkers: -1,
		Telemetry:      telemetry.NewHub(telemetry.HubConfig{}),
		ShardPool:      pool,
	}
}

// listener is one HTTP server on a loopback port.
type listener struct {
	hs   *http.Server
	url  string
	done chan struct{}
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	l := &listener{hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		l.hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return l, nil
}

// close stops the server, drops its connections and waits for Serve to
// return.
func (l *listener) close() {
	l.hs.Close()
	<-l.done
}

// stack is the system under test: the mining server behind HTTP, plus the
// shard servers its pool scatters to (ingest-notify only), and the
// benchmark's HTTP client.
type stack struct {
	srv    *server.Server
	front  *listener
	shards []*listener
	pool   *shardrpc.Pool
	client *http.Client
	tr     *http.Transport
}

// startStack starts nShards loopback shard servers (none when 0) and the
// mining server, and a client limited to conns connections.
func startStack(nShards, conns int) (*stack, error) {
	st := &stack{}
	var addrs []string
	for i := 0; i < nShards; i++ {
		ss := shardrpc.NewShardServer(shardrpc.ShardConfig{Telemetry: telemetry.NewHub(telemetry.HubConfig{})})
		l, err := listen(ss.Handler())
		if err != nil {
			st.close()
			return nil, err
		}
		st.shards = append(st.shards, l)
		addrs = append(addrs, l.url)
	}
	if nShards > 0 {
		pool, err := shardrpc.NewPool(shardrpc.PoolConfig{Addrs: addrs})
		if err != nil {
			st.close()
			return nil, err
		}
		st.pool = pool
	}
	st.srv = server.New(serverConfig(st.pool))
	front, err := listen(st.srv.Handler())
	if err != nil {
		st.close()
		return nil, err
	}
	st.front = front
	st.tr = &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	st.client = &http.Client{Transport: st.tr}
	return st, nil
}

func (st *stack) close() {
	if st.tr != nil {
		st.tr.CloseIdleConnections()
	}
	if st.front != nil {
		st.front.close()
	}
	for _, l := range st.shards {
		l.close()
	}
}

// mineBody is the POST /mine request document.
type mineBody struct {
	Dataset   string  `json:"dataset"`
	Algorithm string  `json:"algorithm"`
	MinESup   float64 `json:"min_esup,omitempty"`
	MinSup    float64 `json:"min_sup,omitempty"`
	PFT       float64 `json:"pft,omitempty"`
	NoCache   bool    `json:"no_cache,omitempty"`
}

func newMineBody(dataset, algorithm string, th core.Thresholds, noCache bool) mineBody {
	return mineBody{Dataset: dataset, Algorithm: algorithm, MinESup: th.MinESup, MinSup: th.MinSup, PFT: th.PFT, NoCache: noCache}
}

// reply is one completed HTTP exchange.
type reply struct {
	status int
	body   []byte
	header http.Header
	// rt is the client-observed round trip: request sent to body read.
	rt time.Duration
}

// serverElapsed is the server-side latency the X-Umine-Elapsed header
// reports.
func (r reply) serverElapsed() time.Duration {
	d, err := time.ParseDuration(r.header.Get("X-Umine-Elapsed"))
	if err != nil {
		return 0
	}
	return d
}

// post sends one JSON POST and reads the whole answer.
func (st *stack) post(ctx context.Context, path string, payload any) (reply, error) {
	raw, err := json.Marshal(payload)
	if err != nil {
		return reply{}, err
	}
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, st.front.url+path, bytes.NewReader(raw))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	resp, err := st.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, body: body, header: resp.Header, rt: time.Since(t0)}, nil
}

// checkMine reports whether a /mine reply is a 200 whose body is byte-equal
// to the reference document.
func checkMine(r reply, want []byte) error {
	if r.status != http.StatusOK {
		return fmt.Errorf("HTTP %d: %s", r.status, bytes.TrimSpace(r.body))
	}
	if !bytes.Equal(r.body, want) {
		return errors.New("answer differs from the direct mine")
	}
	return nil
}

// directMine is the oracle: the named miner run in-process on db at th with
// all CPUs (plus the given progress observer).
func directMine(ctx context.Context, db *core.Database, algorithm string, th core.Thresholds, workers int, progress core.ProgressFunc) (*core.ResultSet, error) {
	m, err := algo.NewWith(algorithm, core.Options{Workers: workers, Progress: progress})
	if err != nil {
		return nil, err
	}
	return m.Mine(ctx, db, th)
}

// encode renders a result set exactly as /mine does.
func encode(rs *core.ResultSet) []byte {
	var buf bytes.Buffer
	rs.WriteJSON(&buf) // a bytes.Buffer write cannot fail
	return buf.Bytes()
}

// corruptCopy returns body with one byte changed (the self-test's broken
// reference).
func corruptCopy(body []byte) []byte {
	out := append([]byte(nil), body...)
	out[len(out)/2] ^= 0x01
	return out
}

// tally counts attempted and failed operations from several goroutines.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	firstErr  error
}

func (t *tally) add(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
	}
}

// tracer keeps the traced run's spans in memory: one named interval per
// timed call into a layer, recorded only from this package.
type tracer struct {
	mu    sync.Mutex
	spans map[string][]time.Duration
}

func newTracer() *tracer { return &tracer{spans: map[string][]time.Duration{}} }

func (t *tracer) record(name string, d time.Duration) {
	t.mu.Lock()
	t.spans[name] = append(t.spans[name], d)
	t.mu.Unlock()
}

// span runs fn as one span named name.
func (t *tracer) span(name string, fn func() error) error {
	d, err := timed(fn)
	t.record(name, d)
	return err
}

// ms returns the spans named name as milliseconds.
func (t *tracer) ms(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]float64, len(t.spans[name]))
	for i, d := range t.spans[name] {
		out[i] = ms(d)
	}
	return out
}
