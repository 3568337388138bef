package exact_test

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"

	"umine/internal/algo"
	"umine/internal/algo/exact"
	"umine/internal/core"
	"umine/internal/dataset"
	"umine/internal/kernel"
)

// TestResumableRowsFallbacks drives a DP miner's row store through every
// path Decide can take — resuming a valid row, rebuilding a row that has
// folded more probabilities than the candidate now has (too long) or whose
// H is below msc (too short), and a store whose own H is below msc — and
// checks each mine byte for byte against the cold mine of the same
// database. A mine canceled midway must leave the kept rows untouched.
func TestResumableRowsFallbacks(t *testing.T) {
	full := dataset.Accident.GenerateUncertain(0.0015, 11)
	n := full.N()
	short := full.Slice(0, n-30)
	th := core.Thresholds{MinSup: 0.2, PFT: 0.7}
	mscShort, msc := th.MinSupCount(short.N()), th.MinSupCount(n)
	if mscShort >= msc {
		t.Fatalf("msc did not step between %d and %d transactions", short.N(), n)
	}
	for _, chernoff := range []bool{false, true} {
		name := "DPNB"
		if chernoff {
			name = "DPB"
		}
		for _, workers := range []int{1, 3} {
			// mine runs the DP miner, resuming from rows when non-nil.
			mine := func(ctx context.Context, db *core.Database, rows *exact.Rows, progress core.ProgressFunc) (*core.ResultSet, error) {
				t.Helper()
				opts := core.Options{Workers: workers, Progress: progress}
				if rows == nil {
					return algo.MustNewWith(name, opts).Mine(ctx, db, th)
				}
				m, err := algo.NewResumable(name, opts, nil, rows)
				if err != nil {
					t.Fatal(err)
				}
				return m.Mine(ctx, db, th)
			}
			encode := func(db *core.Database, rows *exact.Rows) []byte {
				t.Helper()
				rs, err := mine(context.Background(), db, rows, nil)
				if err != nil {
					t.Fatal(err)
				}
				if rows != nil {
					rows.Commit()
				}
				var buf bytes.Buffer
				if err := rs.WriteJSON(&buf); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			}
			coldShort, coldFull := encode(short, nil), encode(full, nil)
			check := func(label string, db *core.Database, rows *exact.Rows, want []byte) {
				t.Helper()
				if got := encode(db, rows); !bytes.Equal(got, want) {
					t.Fatalf("chernoff=%v workers=%d %s: mine with rows diverged from the cold mine", chernoff, workers, label)
				}
			}

			// Valid rows: built over the prefix, resumed over the appended
			// database.
			rows := exact.NewRows(msc)
			check("build", short, rows, coldShort)
			if rows.Len() == 0 || rows.Resumed() != 0 {
				t.Fatalf("build kept %d rows and resumed %d, want some kept and none resumed", rows.Len(), rows.Resumed())
			}
			before := make(map[string]int, rows.Len())
			for k, r := range rows.Kept() {
				before[k] = r.Used()
			}
			check("resume", full, rows, coldFull)
			if rows.Resumed() == 0 {
				t.Fatal("no row was resumed over the appended database")
			}
			advanced := 0
			for k, r := range rows.Kept() {
				if used, ok := before[k]; ok && r.Used() > used {
					advanced++
				}
			}
			if advanced == 0 {
				t.Fatal("no kept row folded the appended probabilities")
			}

			// A mine canceled after it has extended rows leaves the kept
			// rows as they were: Decide extends copies.
			rows = exact.NewRows(msc)
			check("rebuild", short, rows, coldShort)
			kept := make(map[string]*kernel.TailRow, rows.Len())
			for k, r := range rows.Kept() {
				kept[k] = r.Clone()
			}
			ctx, cancel := context.WithCancel(context.Background())
			if _, err := mine(ctx, full, rows, func(core.ProgressEvent) { cancel() }); !errors.Is(err, context.Canceled) {
				t.Fatalf("mine canceled from its first progress event = %v, want context.Canceled", err)
			}
			cancel()
			if rows.Resumed() == 0 {
				t.Fatal("the canceled mine resumed no rows before stopping")
			}
			if !reflect.DeepEqual(rows.Kept(), kept) {
				t.Fatal("a canceled mine changed the kept rows")
			}
			check("resume after cancel", full, rows, coldFull)

			// Too long: the advanced rows have folded probabilities of the
			// appended transactions, so they cannot resume over the prefix
			// and are rebuilt; the rest resume with nothing to fold.
			nkept := rows.Len()
			check("too-long", short, rows, coldShort)
			if rows.Resumed() > nkept-advanced {
				t.Fatalf("too-long rows: resumed %d of %d kept rows, but %d had folded appended probabilities", rows.Resumed(), nkept, advanced)
			}

			// Too short: rows of height mscShort cannot read msc; fresh rows
			// are built at the store's height instead.
			rows = exact.NewRows(mscShort)
			check("short-build", short, rows, coldShort)
			rows.SetH(msc)
			check("too-short", full, rows, coldFull)
			if rows.Resumed() != 0 || rows.Len() == 0 {
				t.Fatalf("too-short rows: resumed %d, kept %d; want 0 resumed and fresh rows kept", rows.Resumed(), rows.Len())
			}
			for _, r := range rows.Kept() {
				if r.H() != msc {
					t.Fatalf("rebuilt row has H %d, want the store's %d", r.H(), msc)
				}
			}

			// A store below msc keeps nothing and mines like the cold path.
			rows = exact.NewRows(msc - 1)
			check("store-below-msc", full, rows, coldFull)
			if rows.Len() != 0 {
				t.Fatalf("a store of height %d below msc %d kept %d rows", msc-1, msc, rows.Len())
			}
		}
	}
}
