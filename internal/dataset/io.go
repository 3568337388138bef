package dataset

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"umine/internal/core"
)

// Text formats.
//
// Deterministic transactions use the FIMI repository format: one transaction
// per line, space-separated non-negative item ids.
//
//	1 4 9
//	2 4
//
// Uncertain transactions extend each item with a colon-separated
// probability:
//
//	1:0.80 4:0.95 9:0.33
//
// Both formats allow blank lines (empty transactions) and '#' comment lines.

// maxLineBytes bounds a single transaction line (Kosarak-scale lines fit
// comfortably).
const maxLineBytes = 1 << 20

// ReadFIMI parses a deterministic transaction database.
func ReadFIMI(r io.Reader, name string) (*Deterministic, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), maxLineBytes)
	d := &Deterministic{Name: name}
	maxItem := -1
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "#") {
			continue
		}
		var tx []core.Item
		if line != "" {
			fields := strings.Fields(line)
			tx = make([]core.Item, 0, len(fields))
			for _, f := range fields {
				v, err := strconv.ParseUint(f, 10, 32)
				if err != nil {
					return nil, fmt.Errorf("dataset: %s line %d: bad item %q: %w", name, lineNo, f, err)
				}
				tx = append(tx, core.Item(v))
				if int(v) > maxItem {
					maxItem = int(v)
				}
			}
			tx = core.NewItemset(tx...)
		}
		d.Transactions = append(d.Transactions, tx)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dataset: %s line %d: %w", name, lineNo, err)
	}
	d.NumItems = maxItem + 1
	return d, nil
}

// ReadUncertain parses an uncertain transaction database in item:prob
// format. Probabilities must be in (0, 1]; zero-probability units are
// rejected (write them out by omitting the unit instead).
func ReadUncertain(r io.Reader, name string) (*core.Database, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), maxLineBytes)
	// Stream straight into the columnar arena: no intermediate [][]Unit
	// materialization, no per-transaction row allocation.
	b := core.NewBuilder(name)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "#") {
			continue
		}
		units, err := ParseUnits(line)
		if err != nil {
			return nil, fmt.Errorf("dataset: %s line %d: %w", name, lineNo, err)
		}
		if err := b.Add(units); err != nil {
			return nil, fmt.Errorf("dataset: %s line %d: %w", name, lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dataset: %s line %d: %w", name, lineNo, err)
	}
	return b.Build(), nil
}

// ParseUnits parses one transaction line of the item:prob text format into
// raw units; an empty line is an empty transaction. It is the single parser
// behind ReadUncertain and the server's ingest surface, so the two accept
// exactly the same lines (probabilities in (0, 1]; zero-probability units
// rejected).
func ParseUnits(line string) ([]core.Unit, error) {
	fields := strings.Fields(line)
	units := make([]core.Unit, 0, len(fields))
	for _, f := range fields {
		colon := strings.IndexByte(f, ':')
		if colon <= 0 || colon == len(f)-1 {
			return nil, fmt.Errorf("bad unit %q (want item:prob)", f)
		}
		item, err := strconv.ParseUint(f[:colon], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bad item in %q: %w", f, err)
		}
		p, err := strconv.ParseFloat(f[colon+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("bad probability in %q: %w", f, err)
		}
		if p <= 0 || p > 1 || p != p {
			return nil, fmt.Errorf("probability %v outside (0,1]", p)
		}
		units = append(units, core.Unit{Item: core.Item(item), Prob: p})
	}
	return units, nil
}

// WriteUncertain serializes an uncertain database in item:prob format with
// full float64 round-trip precision.
func WriteUncertain(w io.Writer, db *core.Database) error {
	bw := bufio.NewWriter(w)
	for j, n := 0, db.N(); j < n; j++ {
		tx := db.Tx(j)
		for i, it := range tx.Items {
			if i > 0 {
				if err := bw.WriteByte(' '); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(bw, "%d:%s", it, strconv.FormatFloat(tx.Probs[i], 'g', 17, 64)); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}
