package umine_test

import (
	"context"
	"errors"
	"testing"

	"umine"
)

// TestMineContextCancel exercises the public context surface: MineContext
// honors cancellation triggered from the Progress hook and returns
// ctx.Err(); MeasureContext surfaces the same error as Measurement.Err.
func TestMineContextCancel(t *testing.T) {
	db := benchDB(t)
	th := umine.Thresholds{MinESup: 0.05}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var events int
	opts := umine.Options{Progress: func(ev umine.ProgressEvent) {
		events++
		cancel()
	}}
	rs, err := umine.MineContext(ctx, "UApriori", db, th, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("MineContext: got (%v, %v), want context.Canceled", rs, err)
	}
	if events == 0 {
		t.Fatal("Progress hook never fired")
	}

	mctx, mcancel := context.WithCancel(context.Background())
	mcancel()
	meas, err := umine.MeasureContext(mctx, "UH-Mine", db, th, umine.Options{})
	if err != nil {
		t.Fatalf("MeasureContext construction error: %v", err)
	}
	if !errors.Is(meas.Err, context.Canceled) {
		t.Fatalf("MeasureContext Measurement.Err = %v, want context.Canceled", meas.Err)
	}

	// The ctx-free wrappers still complete normally (Background semantics).
	if _, err := umine.Mine("UApriori", db, th); err != nil {
		t.Fatalf("Mine under Background: %v", err)
	}
}

// benchDB builds a small-but-multilevel database so a Progress event fires
// before the run completes.
func benchDB(t *testing.T) *umine.Database {
	t.Helper()
	raw := make([][]umine.Unit, 0, 600)
	for i := 0; i < 600; i++ {
		var tx []umine.Unit
		for j := 0; j < 8; j++ {
			if (i+j)%3 != 0 {
				tx = append(tx, umine.Unit{Item: umine.Item(j), Prob: 0.5 + float64((i+j)%5)/10})
			}
		}
		raw = append(raw, tx)
	}
	db, err := umine.NewDatabase("cancel-bench", raw)
	if err != nil {
		t.Fatal(err)
	}
	return db
}
