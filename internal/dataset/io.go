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

// MaxItems bounds the item ids the item:prob text format accepts: ids are
// in [0, MaxItems). The item universe sizes per-item arrays (a miner's
// level-1 candidates, the count tables), so one unchecked id from the
// network could ask for gigabytes. The bound is 25× the largest universe in
// the paper's benchmarks (Kosarak, 41,270 items).
const MaxItems = 1 << 20

// ParseUnits parses one transaction line of the item:prob text format into
// raw units; an empty line is an empty transaction. It is the single parser
// behind ReadUncertain and the server's ingest surface, so the two accept
// exactly the same lines (items below MaxItems; probabilities in (0, 1];
// zero-probability units rejected).
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
		if item >= MaxItems {
			return nil, fmt.Errorf("item %d in %q is not below %d", item, f, MaxItems)
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

// AppendUncertain appends tx to dst as one item:prob line, without the
// newline. Each probability carries full float64 round-trip precision (17
// significant digits), so ParseUnits reads the line back bit for bit.
func AppendUncertain(dst []byte, tx core.Transaction) []byte {
	for i, it := range tx.Items {
		if i > 0 {
			dst = append(dst, ' ')
		}
		dst = strconv.AppendUint(dst, uint64(it), 10)
		dst = append(dst, ':')
		dst = strconv.AppendFloat(dst, tx.Probs[i], 'g', 17, 64)
	}
	return dst
}

// WriteUncertain serializes an uncertain database in item:prob format, one
// AppendUncertain line per transaction.
func WriteUncertain(w io.Writer, db *core.Database) error {
	bw := bufio.NewWriter(w)
	var line []byte
	for j, n := 0, db.N(); j < n; j++ {
		line = append(AppendUncertain(line[:0], db.Tx(j)), '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}
