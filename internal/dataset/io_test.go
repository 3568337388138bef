package dataset

import (
	"bufio"
	"bytes"
	"io"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"umine/internal/core"
)

func TestReadFIMI(t *testing.T) {
	in := "1 4 9\n# comment\n2 4\n\n0\n"
	d, err := ReadFIMI(strings.NewReader(in), "test")
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Transactions) != 4 {
		t.Fatalf("got %d transactions", len(d.Transactions))
	}
	if d.NumItems != 10 {
		t.Fatalf("NumItems = %d, want 10", d.NumItems)
	}
	if len(d.Transactions[2]) != 0 {
		t.Fatal("blank line must be an empty transaction")
	}
	want := core.NewItemset(1, 4, 9)
	if !core.Itemset(d.Transactions[0]).Equal(want) {
		t.Fatalf("first transaction = %v", d.Transactions[0])
	}
}

func TestReadFIMIUnsortedAndDuplicates(t *testing.T) {
	d, err := ReadFIMI(strings.NewReader("9 1 4 1\n"), "test")
	if err != nil {
		t.Fatal(err)
	}
	if !core.Itemset(d.Transactions[0]).Equal(core.NewItemset(1, 4, 9)) {
		t.Fatalf("transaction not canonicalized: %v", d.Transactions[0])
	}
}

func TestReadFIMIErrors(t *testing.T) {
	for _, in := range []string{"1 x 3\n", "-4\n", "1 2 99999999999999999999\n"} {
		if _, err := ReadFIMI(strings.NewReader(in), "bad"); err == nil {
			t.Errorf("input %q accepted", in)
		}
	}
}

// writeFIMI serializes a deterministic database in FIMI format, the
// inverse of ReadFIMI.
func writeFIMI(w io.Writer, d *Deterministic) error {
	bw := bufio.NewWriter(w)
	for _, tx := range d.Transactions {
		for i, it := range tx {
			if i > 0 {
				if err := bw.WriteByte(' '); err != nil {
					return err
				}
			}
			if _, err := bw.WriteString(strconv.FormatUint(uint64(it), 10)); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func TestFIMIRoundTrip(t *testing.T) {
	d := &Deterministic{
		Name:     "rt",
		NumItems: 7,
		Transactions: [][]core.Item{
			{0, 3, 6}, {}, {1}, {2, 5},
		},
	}
	var buf bytes.Buffer
	if err := writeFIMI(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFIMI(&buf, "rt")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Transactions) != len(d.Transactions) {
		t.Fatalf("transaction count %d vs %d", len(got.Transactions), len(d.Transactions))
	}
	for i := range d.Transactions {
		if !core.Itemset(got.Transactions[i]).Equal(core.Itemset(d.Transactions[i])) {
			t.Fatalf("transaction %d: %v vs %v", i, got.Transactions[i], d.Transactions[i])
		}
	}
}

func TestReadUncertain(t *testing.T) {
	in := "1:0.8 4:0.95\n# c\n\n2:1\n"
	db, err := ReadUncertain(strings.NewReader(in), "u")
	if err != nil {
		t.Fatal(err)
	}
	if db.N() != 3 {
		t.Fatalf("N = %d", db.N())
	}
	if got := db.Tx(0).Prob(4); got != 0.95 {
		t.Fatalf("prob = %v", got)
	}
	if db.TxLen(1) != 0 {
		t.Fatal("blank line must be empty transaction")
	}
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReadUncertainErrors(t *testing.T) {
	inputs := []string{
		"1\n",       // missing prob
		"1:\n",      // empty prob
		":0.5\n",    // missing item
		"1:abc\n",   // bad prob
		"x:0.5\n",   // bad item
		"1:0\n",     // zero prob
		"1:1.5\n",   // >1
		"1:-0.2\n",  // negative
		"1:NaN\n",   // NaN
		"1:0.5:9\n", // stray colon in prob
		"1 0.5\n",   // space instead of colon
	}
	for _, in := range inputs {
		if _, err := ReadUncertain(strings.NewReader(in), "bad"); err == nil {
			t.Errorf("input %q accepted", in)
		}
	}
}

func TestUncertainRoundTripExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	raw := make([][]core.Unit, 50)
	for i := range raw {
		n := rng.Intn(6)
		for j := 0; j < n; j++ {
			raw[i] = append(raw[i], core.Unit{Item: core.Item(rng.Intn(40)), Prob: rng.Float64() + 1e-9})
		}
	}
	db := core.MustNewDatabase("rt", raw)
	var buf bytes.Buffer
	if err := WriteUncertain(&buf, db); err != nil {
		t.Fatal(err)
	}
	got, err := ReadUncertain(&buf, "rt")
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != db.N() {
		t.Fatalf("N %d vs %d", got.N(), db.N())
	}
	for i, n := 0, db.N(); i < n; i++ {
		a, b := db.Tx(i), got.Tx(i)
		if !a.Equal(b) {
			t.Fatalf("transaction %d: %v vs %v (probabilities must round-trip bit-exactly)", i, a, b)
		}
	}
}

func TestReadUncertainLongLine(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 20000; i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(strings.Replace("X:0.5", "X", string(rune('0'+i%10)), 1))
	}
	b.WriteByte('\n')
	if _, err := ReadUncertain(strings.NewReader(b.String()), "long"); err != nil {
		t.Fatalf("long line rejected: %v", err)
	}
}
