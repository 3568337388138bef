package algo

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"umine/internal/core"
	"umine/internal/core/coretest"
)

// The arena acceptance gate: every registered configuration must produce
// byte-identical serialized results on an arena-built database
// (core.NewDatabase streaming raw units through the Builder) and on a
// legacy-style one (each transaction normalized separately, then assembled
// with coretest.FromTransactions), at Workers ∈ {1, 4} × Partitions ∈
// {1, 4}. The storage refactor is a layout change, not a semantics
// change — the construction route, like the worker count and the partition
// count, may never move a bit.

// storageIdentityRaw generates the raw unit lists both constructions share:
// dense enough that every family mines multiple levels, small enough that
// the exact miners stay fast, and larger than one counting chunk is not
// needed here (the determinism suite covers chunked counting; this suite
// covers construction-route identity across the execution grid).
func storageIdentityRaw() [][]core.Unit {
	rng := rand.New(rand.NewSource(2024))
	raw := make([][]core.Unit, 120)
	for i := range raw {
		for it := 0; it < 9; it++ {
			if rng.Float64() < 0.5 {
				// Quantized probabilities make UFP-tree sharing reachable.
				p := float64(1+rng.Intn(16)) / 16
				raw[i] = append(raw[i], core.Unit{Item: core.Item(it), Prob: p})
			}
		}
	}
	return raw
}

func storageIdentityDBs(t *testing.T) (arena, legacy *core.Database) {
	t.Helper()
	raw := storageIdentityRaw()
	arena, err := core.NewDatabase("storage-identity", raw)
	if err != nil {
		t.Fatal(err)
	}
	txs := make([]core.Transaction, 0, len(raw))
	for i, units := range raw {
		tx, err := core.NormalizeTransaction(units)
		if err != nil {
			t.Fatalf("transaction %d: %v", i, err)
		}
		txs = append(txs, tx)
	}
	legacy = coretest.FromTransactions("storage-identity", txs)
	return arena, legacy
}

func TestArenaDatabaseBitIdenticalAcrossConfigurations(t *testing.T) {
	arena, legacy := storageIdentityDBs(t)
	names := Names()
	if got := len(names); got != 11 {
		t.Fatalf("registry holds %d configurations, want 11 (ten paper configurations + MCSampling)", got)
	}
	workerCounts := []int{1, 4}
	partitionCounts := []int{1, 4}
	for _, name := range names {
		sem := MustNewWith(name, core.Options{}).Semantics()
		var th core.Thresholds
		switch sem {
		case core.ExpectedSupport:
			th = core.Thresholds{MinESup: 0.2}
		case core.Probabilistic:
			th = core.Thresholds{MinSup: 0.25, PFT: 0.8}
		}
		for _, w := range workerCounts {
			for _, k := range partitionCounts {
				opts := core.Options{Workers: w, Partitions: k}
				onArena := mineSerialized(t, name, arena, th, opts)
				onLegacy := mineSerialized(t, name, legacy, th, opts)
				if !bytes.Equal(onArena, onLegacy) {
					t.Errorf("%s (workers=%d, partitions=%d): arena-built and legacy-built databases disagree",
						name, w, k)
				}
			}
		}
	}
}

// mineSerialized mines and returns the canonical JSON serialization — the
// byte-identity the server's cache and the experiment reports rely on.
func mineSerialized(t *testing.T, name string, db *core.Database, th core.Thresholds, opts core.Options) []byte {
	t.Helper()
	m, err := NewWith(name, opts)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := m.Mine(context.Background(), db, th)
	if err != nil {
		t.Fatalf("%s on %s (%+v): %v", name, db.Name, opts, err)
	}
	var buf bytes.Buffer
	if err := rs.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
