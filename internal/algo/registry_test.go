package algo

import (
	"context"
	"math/rand"
	"testing"

	"umine/internal/algo/exact"
	"umine/internal/core"
	"umine/internal/core/coretest"
)

// TestRegistryCapabilityMetadata checks each entry's capability metadata
// against the miners its constructor builds: every constructor installs
// the Progress observer, Partition entries honor NewRestricted's contract
// (a superset restriction is bit-identical, a narrower one drops exactly
// what it excludes), and NewRestricted rejects every other name. Only the
// DP miners are resumable: NewResumable builds them (mining bit-identical
// to NewWith with rows kept) and rejects every other name. PFTMonotonic
// holds exactly for the exact family, NDUApriori and NDUH-Mine.
func TestRegistryCapabilityMetadata(t *testing.T) {
	db := coretest.RandomDB(rand.New(rand.NewSource(19)), 200, 8, 0.8)
	if n := len(Entries()); n != 11 {
		t.Fatalf("%d registry entries, want 11", n)
	}
	for _, e := range Entries() {
		wantPFT := e.Family == ExactFamily || e.Name == "NDUApriori" || e.Name == "NDUH-Mine"
		if e.PFTMonotonic != wantPFT || PFTMonotonic(e.Name) != wantPFT {
			t.Errorf("%s: PFTMonotonic = %v, PFTMonotonic(name) = %v, want %v", e.Name, e.PFTMonotonic, PFTMonotonic(e.Name), wantPFT)
		}
		done := 0
		m := MustNewWith(e.Name, core.Options{Workers: 1, Progress: func(ev core.ProgressEvent) {
			if ev.Phase == core.PhaseDone {
				done++
			}
		}})
		th := cancelThresholds(m)
		want, err := m.Mine(context.Background(), db, th)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if done != 1 {
			t.Errorf("%s: NewWith's Progress saw %d PhaseDone events, want 1", e.Name, done)
		}
		if got := SupportsPartitions(e.Name); got != e.Partition {
			t.Errorf("SupportsPartitions(%q) = %v, want %v", e.Name, got, e.Partition)
		}
		p1, ok := PartitionPhase1(e.Name)
		if ok != e.Partition {
			t.Errorf("PartitionPhase1(%q) ok=%v, want %v", e.Name, ok, e.Partition)
		}
		if sem, err := SemanticsOf(e.Name); err != nil || sem != m.Semantics() {
			t.Errorf("SemanticsOf(%q) = (%v, %v), want (%v, nil)", e.Name, sem, err, m.Semantics())
		}
		resumable := e.Name == "DPNB" || e.Name == "DPB"
		rows := exact.NewRows(th.MinSupCount(db.N()))
		mr, err := NewResumable(e.Name, core.Options{Workers: 1}, nil, rows)
		if SupportsResume(e.Name) != resumable || (err == nil) != resumable {
			t.Errorf("SupportsResume(%q) = %v, NewResumable error %v; want resumable %v", e.Name, SupportsResume(e.Name), err, resumable)
		}
		if err == nil {
			got, err := mr.Mine(context.Background(), db, th)
			if err != nil {
				t.Fatalf("%s resumable: %v", e.Name, err)
			}
			rows.Commit()
			requireSameResults(t, e.Name+" resumable", want.Results, got)
			if rows.Len() == 0 {
				t.Errorf("%s resumable: the mine kept no rows", e.Name)
			}
		}
		if ok {
			m1, err := New(p1)
			if err != nil {
				t.Errorf("PartitionPhase1(%q) = %q: %v", e.Name, p1, err)
			} else if m1.Semantics() != core.ExpectedSupport {
				t.Errorf("PartitionPhase1(%q) = %q answers %v; phase-1 candidate mines must be expected-support",
					e.Name, p1, m1.Semantics())
			}
		}
		if !e.Partition {
			if _, err := NewRestricted(e.Name, core.Options{}, func(core.Itemset) bool { return true }); err == nil {
				t.Errorf("NewRestricted(%q) must fail (non-partitionable)", e.Name)
			}
			continue
		}

		if want.Len() == 0 {
			t.Fatalf("%s: empty result set; the thresholds must leave something to drop", e.Name)
		}

		// Restricted to its own result set (a superset of the true result,
		// trivially), the miner reproduces that set bit for bit.
		allowed := make(map[string]bool, want.Len())
		for _, r := range want.Results {
			allowed[r.Itemset.Key()] = true
		}
		allow := func(x core.Itemset) bool { return allowed[x.Key()] }
		requireSameResults(t, e.Name+" restricted to its result set", want.Results, mineRestricted(t, e.Name, db, th, allow))

		// Excluding one maximal itemset keeps the allowed set downward
		// closed, so exactly that itemset disappears.
		var drop core.Itemset
		for _, r := range want.Results {
			if r.Itemset.Len() == want.MaxLen() {
				drop = r.Itemset
			}
		}
		delete(allowed, drop.Key())
		var rest []core.Result
		for _, r := range want.Results {
			if !r.Itemset.Equal(drop) {
				rest = append(rest, r)
			}
		}
		requireSameResults(t, e.Name+" restricted without "+drop.String(), rest, mineRestricted(t, e.Name, db, th, allow))
	}
	if _, err := NewRestricted("NoSuchMiner", core.Options{}, nil); err == nil {
		t.Error("NewRestricted on an unknown name must fail")
	}
	if _, err := NewResumable("NoSuchMiner", core.Options{}, nil, exact.NewRows(1)); err == nil || SupportsResume("NoSuchMiner") {
		t.Error("NewResumable on an unknown name must fail and SupportsResume report false")
	}
	if PFTMonotonic("NoSuchMiner") {
		t.Error("PFTMonotonic on an unknown name must report false")
	}
	if SupportsPartitions("NoSuchMiner") {
		t.Error("SupportsPartitions on an unknown name must report false")
	}
	if _, err := SemanticsOf("NoSuchMiner"); err == nil {
		t.Error("SemanticsOf on an unknown name must fail")
	}
	if _, err := NewPartitionEngine("MCSampling", core.Options{Partitions: 2}); err == nil {
		t.Error("NewPartitionEngine(MCSampling) must fail (non-partitionable)")
	}
	// NewWith mines MCSampling single-shot at every Partitions value.
	if m, err := NewWith("MCSampling", core.Options{Partitions: 4}); err != nil || m.Name() != "MCSampling" {
		t.Errorf("NewWith(MCSampling, Partitions=4) = (%v, %v), want the plain miner", m, err)
	}
}

// mineRestricted runs the named miner under allow at Workers 4, so allow
// is exercised from concurrent workers.
func mineRestricted(t *testing.T, name string, db *core.Database, th core.Thresholds, allow func(core.Itemset) bool) *core.ResultSet {
	t.Helper()
	m, err := NewRestricted(name, core.Options{Workers: 4}, allow)
	if err != nil {
		t.Fatalf("NewRestricted(%q): %v", name, err)
	}
	rs, err := m.Mine(context.Background(), db, th)
	if err != nil {
		t.Fatalf("%s restricted: %v", name, err)
	}
	return rs
}

// requireSameResults compares itemsets and measures bitwise; work counters
// are not compared, since a restriction exists to skip work.
func requireSameResults(t *testing.T, label string, want []core.Result, got *core.ResultSet) {
	t.Helper()
	if got.Len() != len(want) {
		t.Fatalf("%s: %d itemsets, want %d", label, got.Len(), len(want))
	}
	for i, a := range want {
		b := got.Results[i]
		if !a.Itemset.Equal(b.Itemset) || !sameBits(a.ESup, b.ESup) || !sameBits(a.Var, b.Var) || !sameBits(a.FreqProb, b.FreqProb) {
			t.Fatalf("%s: result %d is %v (%v,%v,%v), want %v (%v,%v,%v)",
				label, i, b.Itemset, b.ESup, b.Var, b.FreqProb, a.Itemset, a.ESup, a.Var, a.FreqProb)
		}
	}
}
