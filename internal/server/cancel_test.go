package server

// Serving-layer cancellation: a request's timeout (or its client hanging
// up) must abort the *running* mine, not just a queued one; a canceled
// singleflight leader must hand leadership off to a surviving follower; and
// /stats must count canceled jobs.

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"umine/internal/core"
	"umine/internal/core/coretest"
)

// TestMineCancelAbortsInFlight: the request deadline cancels a mine that
// has already STARTED (the mineFn stub only returns when its context is
// done, so completing at all proves in-flight cancellation), and the
// canceled counter increments.
func TestMineCancelAbortsInFlight(t *testing.T) {
	db := testDB(t)
	s := newTestServer(t, db)
	started := make(chan struct{})
	s.mineFn = func(ctx context.Context, alg string, db *core.Database, th core.Thresholds, opts core.Options) (*core.ResultSet, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	}
	_, err := s.Mine(context.Background(), MineRequest{
		Dataset:   "d",
		Algorithm: "UApriori",
		Thresholds: core.Thresholds{
			MinESup: 0.2,
		},
		Timeout: 50 * time.Millisecond,
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err=%v, want context.DeadlineExceeded", err)
	}
	select {
	case <-started:
	default:
		t.Fatal("mine never started; the timeout aborted a queued job, not an in-flight one")
	}
	st := s.Stats()
	if st.Canceled != 1 {
		t.Errorf("Stats().Canceled = %d, want 1", st.Canceled)
	}
	if st.Errors != 1 {
		t.Errorf("Stats().Errors = %d, want 1", st.Errors)
	}
}

// TestMineCancelRealMinerInFlight drives a real miner (no blocking stub):
// the request context is canceled from the miner's own first Progress
// checkpoint — proving the job was running, not queued — and the server
// must surface ctx.Err() promptly via the cooperative checkpoints.
func TestMineCancelRealMinerInFlight(t *testing.T) {
	db := coretest.RandomDB(rand.New(rand.NewSource(21)), 1500, 14, 0.6)
	s := New(Config{})
	if _, err := s.RegisterDatabase("d", db, RegisterOptions{}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var checkpoints atomic.Int64
	base := s.mineFn
	s.mineFn = func(mctx context.Context, alg string, mdb *core.Database, th core.Thresholds, opts core.Options) (*core.ResultSet, error) {
		opts.Progress = func(core.ProgressEvent) {
			checkpoints.Add(1)
			cancel()
		}
		return base(mctx, alg, mdb, th, opts)
	}
	start := time.Now()
	_, err := s.Mine(ctx, MineRequest{
		Dataset:    "d",
		Algorithm:  "DCB",
		Thresholds: core.Thresholds{MinSup: 0.05, PFT: 0.5},
		NoCache:    true,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v, want context.Canceled", err)
	}
	if checkpoints.Load() == 0 {
		t.Fatal("the mine never reached a checkpoint; cancellation did not land in flight")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("canceled mine took %v to return", d)
	}
	if st := s.Stats(); st.Canceled != 1 {
		t.Errorf("Stats().Canceled = %d, want 1", st.Canceled)
	}
}

// TestMineCancelLeaderHandsOff: when a singleflight leader's context dies
// mid-mine, a waiting follower must not inherit the failure — it retries,
// becomes the new leader under its own context, and completes.
func TestMineCancelLeaderHandsOff(t *testing.T) {
	db := testDB(t)
	s := newTestServer(t, db)
	base := s.mineFn
	var calls atomic.Int64
	leaderIn := make(chan struct{})
	s.mineFn = func(ctx context.Context, alg string, db *core.Database, th core.Thresholds, opts core.Options) (*core.ResultSet, error) {
		if calls.Add(1) == 1 {
			close(leaderIn)
			<-ctx.Done() // first (leader) call: pinned until its timeout fires
			return nil, ctx.Err()
		}
		return base(ctx, alg, db, th, opts)
	}

	req := MineRequest{Dataset: "d", Algorithm: "UApriori", Thresholds: core.Thresholds{MinESup: 0.2}}
	leaderErr := make(chan error, 1)
	go func() {
		lreq := req
		lreq.Timeout = 50 * time.Millisecond
		_, err := s.Mine(context.Background(), lreq)
		leaderErr <- err
	}()

	<-leaderIn // the leader is mining; join it as a follower
	resp, err := s.Mine(context.Background(), req)
	if err != nil {
		t.Fatalf("follower err=%v, want success via leadership handoff", err)
	}
	if resp.Results == nil || resp.Results.Len() == 0 {
		t.Fatal("follower got an empty result set")
	}
	if err := <-leaderErr; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("leader err=%v, want context.DeadlineExceeded", err)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("mineFn ran %d times, want 2 (dead leader + retrying follower)", got)
	}
}
