// Package dataset provides the data substrate for the reproduction: text IO
// for deterministic (FIMI) and uncertain transaction files, synthetic
// generators that reproduce the shape of the paper's five benchmark
// datasets (Table 6), and the probability assigners (Gaussian, Zipf) used to
// turn deterministic benchmarks into uncertain ones (§4.1).
//
// The original FIMI files (Connect, Accident, Kosarak, Gazelle) are not
// redistributable and the environment is offline, so each benchmark is
// replaced by a generator that matches its published shape: number of
// transactions, item-universe size, average transaction length and density.
// Dense profiles use graded independent item inclusion (yielding the long,
// high-support itemsets that make Connect-like data hard for breadth-first
// miners at low thresholds); sparse profiles use Zipf item popularity
// (yielding the long-tailed universes that favour UH-Mine). The synthetic
// T25I15D320k dataset is reproduced by an IBM-Quest-style generator.
package dataset

import (
	"fmt"
	"math/rand"

	"umine/internal/core"
)

// Deterministic is a deterministic (certain) transaction database: the raw
// material that probability assigners turn into an uncertain database.
type Deterministic struct {
	Name         string
	NumItems     int
	Transactions [][]core.Item
}

// Stats summarizes the deterministic database in Table 6 form.
func (d *Deterministic) Stats() core.Stats {
	st := core.Stats{Name: d.Name, NumTrans: len(d.Transactions), NumItems: d.NumItems}
	for _, t := range d.Transactions {
		st.TotalUnits += len(t)
		if len(t) > st.MaxTransLen {
			st.MaxTransLen = len(t)
		}
		if len(t) == 0 {
			st.EmptyTrans++
		}
	}
	if st.NumTrans > 0 {
		st.AvgLen = float64(st.TotalUnits) / float64(st.NumTrans)
	}
	if st.NumItems > 0 {
		st.Density = st.AvgLen / float64(st.NumItems)
	}
	return st
}

// Assigner maps a deterministic database to an uncertain one by giving every
// item occurrence an existential probability.
type Assigner interface {
	// Name labels the assigner in dataset names and reports.
	Name() string
	// Assign draws a probability in (0, 1] for one item occurrence.
	Assign(rng *rand.Rand) float64
}

// Apply converts d into an uncertain database using the assigner and the
// random source, streaming straight into the columnar arena (one reused
// unit buffer — no per-transaction row materialization). Occurrences whose
// assigned probability would round to zero are kept at the assigner's
// floor, so the uncertain database preserves the deterministic one's shape
// (same transactions, same lengths).
func Apply(d *Deterministic, a Assigner, rng *rand.Rand) *core.Database {
	b := core.NewBuilder(fmt.Sprintf("%s+%s", d.Name, a.Name()))
	units := 0
	for _, t := range d.Transactions {
		units += len(t)
	}
	b.Grow(len(d.Transactions), units)
	var buf []core.Unit
	for _, t := range d.Transactions {
		buf = buf[:0]
		for _, it := range t {
			buf = append(buf, core.Unit{Item: it, Prob: a.Assign(rng)})
		}
		if err := b.Add(buf); err != nil {
			// Assigners guarantee (0,1]; an error here is a programming bug.
			panic(fmt.Sprintf("dataset: assigner produced invalid database: %v", err))
		}
	}
	db := b.Build()
	if d.NumItems > db.NumItems {
		db.SetNumItems(d.NumItems)
	}
	return db
}
