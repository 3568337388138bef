package stream

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"umine/internal/algo"
	"umine/internal/core"
	"umine/internal/core/coretest"
	"umine/internal/prob"
)

func newTestWindow(t *testing.T, size int, sem core.Semantics) *Window {
	t.Helper()
	th := core.Thresholds{MinESup: 0.4, MinSup: 0.4, PFT: 0.7}
	w, err := NewWindow(Config{Size: size, Thresholds: th, Semantics: sem})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestNewWindowValidation(t *testing.T) {
	if _, err := NewWindow(Config{Size: 0, Thresholds: core.Thresholds{MinESup: 0.5}}); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := NewWindow(Config{Size: 4, Thresholds: core.Thresholds{MinESup: -1}}); err == nil {
		t.Error("invalid thresholds accepted")
	}
	if _, err := NewWindow(Config{Size: 4, Thresholds: core.Thresholds{MinESup: 0.5}, RefreshEvery: 10}); err == nil {
		t.Error("refresh without miner accepted")
	}
}

// TestIncrementalMatchesBatch: after any sequence of pushes, the running
// sums of every watched itemset must match a from-scratch computation over
// the window snapshot.
func TestIncrementalMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	w := newTestWindow(t, 16, core.ExpectedSupport)
	watch := []core.Itemset{
		core.NewItemset(0),
		core.NewItemset(1, 2),
		core.NewItemset(0, 3, 4),
	}
	for _, x := range watch {
		w.Watch(x)
	}
	for step := 0; step < 200; step++ {
		var units []core.Unit
		for it := 0; it < 6; it++ {
			if rng.Float64() < 0.5 {
				units = append(units, core.Unit{Item: core.Item(it), Prob: 0.1 + 0.9*rng.Float64()})
			}
		}
		if _, err := w.Push(context.Background(), units); err != nil {
			t.Fatal(err)
		}
		db := w.Snapshot()
		for _, x := range watch {
			wantE, wantV := db.ESupVar(x)
			gotE, ok := w.ESup(x)
			if !ok {
				t.Fatalf("step %d: %v not watched", step, x)
			}
			if math.Abs(gotE-wantE) > 1e-9 {
				t.Fatalf("step %d %v: incremental esup %v, batch %v", step, x, gotE, wantE)
			}
			pos := w.index[x.Key()]
			if math.Abs(w.watch[pos].varsum-wantV) > 1e-9 {
				t.Fatalf("step %d %v: incremental var %v, batch %v", step, x, w.watch[pos].varsum, wantV)
			}
		}
	}
	if w.N() != 16 {
		t.Fatalf("window holds %d, want 16", w.N())
	}
	if w.Arrived() != 200 {
		t.Fatalf("arrived %d, want 200", w.Arrived())
	}
}

// TestWatchMidStream: watching after pushes must initialize sums from the
// current window contents.
func TestWatchMidStream(t *testing.T) {
	w := newTestWindow(t, 8, core.ExpectedSupport)
	for i := 0; i < 5; i++ {
		if _, err := w.Push(context.Background(), []core.Unit{{Item: 0, Prob: 0.5}, {Item: 1, Prob: 0.4}}); err != nil {
			t.Fatal(err)
		}
	}
	w.Watch(core.NewItemset(0, 1))
	got, ok := w.ESup(core.NewItemset(0, 1))
	if !ok || math.Abs(got-5*0.2) > 1e-12 {
		t.Fatalf("mid-stream watch esup = %v, want 1.0", got)
	}
	// Duplicate watch is a no-op.
	w.Watch(core.NewItemset(0, 1))
	if len(w.watch) != 1 {
		t.Fatalf("duplicate watch grew the list to %d", len(w.watch))
	}
}

func TestUnwatch(t *testing.T) {
	w := newTestWindow(t, 4, core.ExpectedSupport)
	a, b := core.NewItemset(0), core.NewItemset(1)
	w.Watch(a)
	w.Watch(b)
	w.Unwatch(a)
	if _, ok := w.ESup(a); ok {
		t.Error("unwatched itemset still queryable")
	}
	if _, ok := w.ESup(b); !ok {
		t.Error("unrelated itemset lost")
	}
	w.Unwatch(a) // absent: no-op
	if got := w.Watched(); len(got) != 1 || !got[0].Equal(b) {
		t.Fatalf("Watched() = %v", got)
	}
}

// TestEvictionExactness: a window of size 3 over the paper's 4 transactions
// must report the expected support of the last 3 transactions only.
func TestEvictionExactness(t *testing.T) {
	w := newTestWindow(t, 3, core.ExpectedSupport)
	w.Watch(core.NewItemset(coretest.A))
	for _, tx := range coretest.PaperDB().Transactions() {
		if _, err := w.PushCanonical(context.Background(), tx); err != nil {
			t.Fatal(err)
		}
	}
	// Last three transactions of Table 1: A appears with 0.8, 0.5, 0 (T4
	// has no A) → esup 1.3.
	got, _ := w.ESup(core.NewItemset(coretest.A))
	if math.Abs(got-1.3) > 1e-12 {
		t.Fatalf("windowed esup(A) = %v, want 1.3", got)
	}
}

func TestFrequentExpectedSupport(t *testing.T) {
	w := newTestWindow(t, 4, core.ExpectedSupport)
	for _, x := range []core.Itemset{
		core.NewItemset(coretest.A),
		core.NewItemset(coretest.C),
		core.NewItemset(coretest.D),
	} {
		w.Watch(x)
	}
	for _, tx := range coretest.PaperDB().Transactions() {
		if _, err := w.PushCanonical(context.Background(), tx); err != nil {
			t.Fatal(err)
		}
	}
	// Full window = Table 1; min_esup 0.4 → threshold 1.6: A (2.1) and
	// C (2.6) qualify, D (1.2) does not.
	got := w.Frequent()
	if len(got) != 2 {
		t.Fatalf("Frequent() = %v, want A and C", got)
	}
	if !got[0].Itemset.Equal(core.NewItemset(coretest.A)) || !got[1].Itemset.Equal(core.NewItemset(coretest.C)) {
		t.Fatalf("Frequent() = %v", got)
	}
}

// TestFreqProbMatchesNormalApprox: the windowed frequent probability must
// equal the §3.3.2 formula computed from the snapshot.
func TestFreqProbMatchesNormalApprox(t *testing.T) {
	w := newTestWindow(t, 4, core.Probabilistic)
	x := core.NewItemset(coretest.A)
	w.Watch(x)
	for _, tx := range coretest.PaperDB().Transactions() {
		if _, err := w.PushCanonical(context.Background(), tx); err != nil {
			t.Fatal(err)
		}
	}
	db := w.Snapshot()
	esup, varsum := db.ESupVar(x)
	msc := core.Thresholds{MinSup: 0.4, PFT: 0.7}.MinSupCount(db.N())
	want := prob.StdNormalTail((float64(msc) - 0.5 - esup) / math.Sqrt(varsum))
	got, ok := w.FreqProb(x)
	if !ok || math.Abs(got-want) > 1e-12 {
		t.Fatalf("windowed freq prob %v, formula %v", got, want)
	}
	if _, ok := w.FreqProb(core.NewItemset(coretest.B)); ok {
		t.Error("unwatched itemset answered")
	}
}

// TestFreqProbCertainAfterEvictionDrift: once the low-probability arrivals
// are evicted, item 0 is certain in all 3 transactions. The running sums
// carry eviction drift (esup 2.9999999999999996, not 3), so the window must
// apply the Normal tail's continuity correction to a zero variance too, as
// NDUApriori and NDUH-Mine do, and report the item frequent.
func TestFreqProbCertainAfterEvictionDrift(t *testing.T) {
	w, err := NewWindow(Config{
		Size:       3,
		Thresholds: core.Thresholds{MinSup: 0.9, PFT: 0.5},
		Semantics:  core.Probabilistic,
	})
	if err != nil {
		t.Fatal(err)
	}
	x := core.NewItemset(0)
	w.Watch(x)
	for _, p := range []float64{0.1, 0.1, 0.1, 1, 1, 1} {
		if _, err := w.Push(context.Background(), []core.Unit{{Item: 0, Prob: p}}); err != nil {
			t.Fatal(err)
		}
	}
	if fp, ok := w.FreqProb(x); !ok || fp != 1 {
		t.Errorf("FreqProb = %v, %v; want 1", fp, ok)
	}
	if got := w.Frequent(); len(got) != 1 || !got[0].Itemset.Equal(x) {
		t.Errorf("Frequent() = %v, want item 0", got)
	}
}

// TestRefreshDiscoversNewPatterns: periodic re-mining must pick up itemsets
// that became frequent after the watch list was built.
func TestRefreshDiscoversNewPatterns(t *testing.T) {
	th := core.Thresholds{MinESup: 0.5}
	w, err := NewWindow(Config{
		Size:         8,
		Thresholds:   th,
		Semantics:    core.ExpectedSupport,
		RefreshEvery: 8,
		Miner:        algo.MustNewWith("UApriori", core.Options{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Phase 1: item 0 dominates.
	for i := 0; i < 8; i++ {
		refreshed, err := w.Push(context.Background(), []core.Unit{{Item: 0, Prob: 0.9}})
		if err != nil {
			t.Fatal(err)
		}
		if (i == 7) != refreshed {
			t.Fatalf("push %d: refreshed = %v", i, refreshed)
		}
	}
	if _, ok := w.ESup(core.NewItemset(0)); !ok {
		t.Fatal("refresh did not discover item 0")
	}
	// Phase 2: the stream shifts to items 1+2.
	for i := 0; i < 8; i++ {
		if _, err := w.Push(context.Background(), []core.Unit{{Item: 1, Prob: 0.9}, {Item: 2, Prob: 0.8}}); err != nil {
			t.Fatal(err)
		}
	}
	watched := map[string]bool{}
	for _, x := range w.Watched() {
		watched[x.Key()] = true
	}
	if !watched[core.NewItemset(1, 2).Key()] {
		t.Fatalf("refresh missed the new pattern {1,2}; watching %v", w.Watched())
	}
	if watched[core.NewItemset(0).Key()] {
		t.Fatalf("stale pattern {0} survived a full window turnover; watching %v", w.Watched())
	}
}

func TestPushRejectsBadUnits(t *testing.T) {
	w := newTestWindow(t, 4, core.ExpectedSupport)
	if _, err := w.Push(context.Background(), []core.Unit{{Item: 0, Prob: 1.5}}); err == nil {
		t.Error("probability > 1 accepted")
	}
	if _, err := w.Push(context.Background(), []core.Unit{{Item: 0, Prob: -0.2}}); err == nil {
		t.Error("negative probability accepted")
	}
}

func TestSnapshotOrder(t *testing.T) {
	w := newTestWindow(t, 3, core.ExpectedSupport)
	for i := 0; i < 5; i++ {
		p := 0.1 + 0.1*float64(i)
		if _, err := w.Push(context.Background(), []core.Unit{{Item: 0, Prob: p}}); err != nil {
			t.Fatal(err)
		}
	}
	db := w.Snapshot()
	if db.N() != 3 {
		t.Fatalf("snapshot N = %d", db.N())
	}
	// Oldest surviving first: pushes 3, 4, 5 → probs 0.3, 0.4, 0.5.
	for i, want := range []float64{0.3, 0.4, 0.5} {
		if got := db.Tx(i).Probs[0]; math.Abs(got-want) > 1e-12 {
			t.Fatalf("snapshot[%d] prob %v, want %v", i, got, want)
		}
	}
}

func BenchmarkWindowPush(b *testing.B) {
	th := core.Thresholds{MinESup: 0.4}
	w, err := NewWindow(Config{Size: 1024, Thresholds: th, Semantics: core.ExpectedSupport})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		w.Watch(core.NewItemset(core.Item(i), core.Item(i+1)))
	}
	rng := rand.New(rand.NewSource(1))
	txs := make([][]core.Unit, 256)
	for i := range txs {
		for it := 0; it < 80; it++ {
			if rng.Float64() < 0.25 {
				txs[i] = append(txs[i], core.Unit{Item: core.Item(it), Prob: rng.Float64()*0.9 + 0.1})
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Push(context.Background(), txs[i%len(txs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// countingMiner wraps a real miner and counts Mine calls.
type countingMiner struct {
	inner core.Miner
	calls int
}

func (m *countingMiner) Name() string              { return m.inner.Name() }
func (m *countingMiner) Semantics() core.Semantics { return m.inner.Semantics() }
func (m *countingMiner) Mine(ctx context.Context, db *core.Database, th core.Thresholds) (*core.ResultSet, error) {
	m.calls++
	return m.inner.Mine(ctx, db, th)
}

// TestLoadDefersRefresh: bulk-loading N transactions through a
// refresh-enabled window re-mines exactly once (at the end), and leaves the
// window in the same state as pushing them one by one.
func TestLoadDefersRefresh(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	db := coretest.RandomDB(rng, 20, 5, 0.7)
	cfg := func(m core.Miner) Config {
		return Config{
			Size:         8,
			Thresholds:   core.Thresholds{MinESup: 0.1},
			RefreshEvery: 3,
			Miner:        m,
		}
	}
	cm := &countingMiner{inner: algo.MustNewWith("UApriori", core.Options{})}
	loaded, err := NewWindow(cfg(cm))
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.Load(context.Background(), db.Transactions()); err != nil {
		t.Fatal(err)
	}
	if cm.calls != 1 {
		t.Errorf("Load ran %d refresh re-mines, want exactly 1", cm.calls)
	}

	pushed, err := NewWindow(cfg(algo.MustNewWith("UApriori", core.Options{})))
	if err != nil {
		t.Fatal(err)
	}
	for _, tx := range db.Transactions() {
		if _, err := pushed.PushCanonical(context.Background(), tx); err != nil {
			t.Fatal(err)
		}
	}
	// The ring contents agree; watch lists may differ only if the final
	// push was not a refresh boundary, so compare after one explicit
	// refresh on each.
	if err := loaded.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := pushed.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	lf, pf := loaded.Frequent(), pushed.Frequent()
	if len(lf) != len(pf) {
		t.Fatalf("Load window has %d frequent itemsets, Push window %d", len(lf), len(pf))
	}
	for i := range lf {
		if !lf[i].Itemset.Equal(pf[i].Itemset) || math.Abs(lf[i].ESup-pf[i].ESup) > 1e-9 {
			t.Fatalf("frequent[%d]: Load %+v vs Push %+v", i, lf[i], pf[i])
		}
	}
	if loaded.N() != pushed.N() || loaded.Arrived() != pushed.Arrived() {
		t.Fatalf("window shape diverged: Load N=%d arrived=%d, Push N=%d arrived=%d",
			loaded.N(), loaded.Arrived(), pushed.N(), pushed.Arrived())
	}
}

// TestRefreshCancel: a canceled context aborts the refresh re-mine with
// ctx.Err() and leaves the previous watch list untouched.
func TestRefreshCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	db := coretest.RandomDB(rng, 12, 5, 0.8)
	w, err := NewWindow(Config{
		Size:       16,
		Thresholds: core.Thresholds{MinESup: 0.1},
		Miner:      algo.MustNewWith("UApriori", core.Options{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Load(context.Background(), db.Transactions()); err != nil {
		t.Fatal(err)
	}
	if err := w.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	watched := len(w.Watched())
	if watched == 0 {
		t.Fatal("refresh discovered nothing; test database too sparse")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := w.Refresh(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled refresh err=%v, want context.Canceled", err)
	}
	if got := len(w.Watched()); got != watched {
		t.Fatalf("canceled refresh changed the watch list: %d -> %d itemsets", watched, got)
	}
}

// TestPushDoesNotRetainCallerArena: the ring must own copies of pushed
// transactions — retaining a caller's view would pin the arena it aliases
// (the whole seed database, for windowed registration) until eviction.
func TestPushDoesNotRetainCallerArena(t *testing.T) {
	w := newTestWindow(t, 4, core.ExpectedSupport)
	db := coretest.PaperDB()
	tx := db.Tx(0)
	if _, err := w.PushCanonical(context.Background(), tx); err != nil {
		t.Fatal(err)
	}
	stored := w.ring[0]
	if !stored.Equal(tx) {
		t.Fatalf("stored transaction %v differs from pushed %v", stored, tx)
	}
	if len(stored.Items) > 0 && &stored.Items[0] == &tx.Items[0] {
		t.Fatal("ring aliases the pushed view's item column (arena retained)")
	}
	if len(stored.Probs) > 0 && &stored.Probs[0] == &tx.Probs[0] {
		t.Fatal("ring aliases the pushed view's probability column (arena retained)")
	}
}
