package eval

import (
	"context"
	"errors"
	"testing"
	"time"

	"umine/internal/core"
	"umine/internal/core/coretest"
)

// slowMiner is a fake miner that allocates and sleeps, for measurement
// tests.
type slowMiner struct {
	alloc int
	err   error
}

func (m *slowMiner) Name() string              { return "slow" }
func (m *slowMiner) Semantics() core.Semantics { return core.ExpectedSupport }
func (m *slowMiner) Mine(ctx context.Context, db *core.Database, th core.Thresholds) (*core.ResultSet, error) {
	if m.err != nil {
		return nil, m.err
	}
	buf := make([]byte, m.alloc)
	time.Sleep(5 * time.Millisecond)
	for i := range buf {
		buf[i] = byte(i)
	}
	_ = buf
	return &core.ResultSet{Algorithm: "slow", Results: []core.Result{
		{Itemset: core.NewItemset(1)},
	}}, nil
}

func TestRunMeasuresTimeAndMemory(t *testing.T) {
	m := &slowMiner{alloc: 8 << 20}
	meas := Run(context.Background(), m, coretest.PaperDB(), core.Thresholds{MinESup: 0.5})
	if meas.Err != nil {
		t.Fatal(meas.Err)
	}
	if meas.Elapsed < 4*time.Millisecond {
		t.Errorf("elapsed %v too small", meas.Elapsed)
	}
	if meas.PeakHeapBytes < 4<<20 {
		t.Errorf("peak heap %d did not observe an 8MB allocation", meas.PeakHeapBytes)
	}
	if meas.Results == nil || meas.Results.Len() != 1 {
		t.Error("results not propagated")
	}
}

func TestRunPropagatesError(t *testing.T) {
	wantErr := errors.New("boom")
	meas := Run(context.Background(), &slowMiner{err: wantErr}, coretest.PaperDB(), core.Thresholds{MinESup: 0.5})
	if !errors.Is(meas.Err, wantErr) {
		t.Fatalf("err = %v", meas.Err)
	}
	if meas.Results != nil {
		t.Error("results set despite error")
	}
}

func rsOf(sets ...core.Itemset) *core.ResultSet {
	rs := &core.ResultSet{}
	for _, s := range sets {
		rs.Results = append(rs.Results, core.Result{Itemset: s})
	}
	core.SortResults(rs.Results)
	return rs
}

func TestCompareSets(t *testing.T) {
	exact := rsOf(core.NewItemset(1), core.NewItemset(2), core.NewItemset(1, 2))
	approx := rsOf(core.NewItemset(1), core.NewItemset(2), core.NewItemset(3))
	acc := CompareSets(approx, exact)
	if acc.Intersection != 2 || acc.FalsePositives != 1 || acc.FalseNegatives != 1 {
		t.Fatalf("accuracy = %+v", acc)
	}
	if acc.Precision != 2.0/3.0 || acc.Recall != 2.0/3.0 {
		t.Fatalf("P=%v R=%v", acc.Precision, acc.Recall)
	}
}

func TestCompareSetsEmptyDenominators(t *testing.T) {
	empty := rsOf()
	some := rsOf(core.NewItemset(1))
	acc := CompareSets(empty, empty)
	if acc.Precision != 1 || acc.Recall != 1 {
		t.Fatalf("empty/empty: %+v", acc)
	}
	acc = CompareSets(empty, some)
	if acc.Precision != 1 || acc.Recall != 0 {
		t.Fatalf("empty/some: %+v", acc)
	}
	acc = CompareSets(some, empty)
	if acc.Precision != 0 || acc.Recall != 1 {
		t.Fatalf("some/empty: %+v", acc)
	}
}

func TestRunWithRealMiner(t *testing.T) {
	// End-to-end: measurement of an actual mining run returns consistent
	// results.
	meas := Run(context.Background(), &realMinerAdapter{}, coretest.PaperDB(), core.Thresholds{MinESup: 0.5})
	if meas.Err != nil {
		t.Fatal(meas.Err)
	}
	if meas.Results.Len() != 2 {
		t.Fatalf("got %d results", meas.Results.Len())
	}
}

// realMinerAdapter avoids an import cycle by inlining a trivial
// expected-support miner over core primitives.
type realMinerAdapter struct{}

func (m *realMinerAdapter) Name() string              { return "naive" }
func (m *realMinerAdapter) Semantics() core.Semantics { return core.ExpectedSupport }
func (m *realMinerAdapter) Mine(ctx context.Context, db *core.Database, th core.Thresholds) (*core.ResultSet, error) {
	minCount := th.MinESupCount(db.N())
	rs := &core.ResultSet{Algorithm: m.Name()}
	esup, _ := db.ItemESupVar()
	for it, e := range esup {
		if e >= minCount-core.Eps {
			rs.Results = append(rs.Results, core.Result{Itemset: core.NewItemset(core.Item(it)), ESup: e})
		}
	}
	core.SortResults(rs.Results)
	return rs, nil
}
