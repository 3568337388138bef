package dataset

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadUncertain: arbitrary input must either be rejected with an error
// or parse into a database that validates and round-trips losslessly. The
// parser is the library's untrusted-input boundary.
func FuzzReadUncertain(f *testing.F) {
	f.Add("0:0.8 2:0.9\n0:0.5 1:0.7\n")
	f.Add("")
	f.Add("\n\n")
	f.Add("3:1 3:0.5\n")       // duplicate item
	f.Add("1:0 2:0.5\n")       // zero probability
	f.Add("1:1.5\n")           // probability above one
	f.Add("x:y\n")             // garbage unit
	f.Add("5\n")               // missing probability
	f.Add("9999999999:0.5\n")  // huge item id
	f.Add("# comment\n1:0.5 ") // no trailing newline
	f.Fuzz(func(t *testing.T, input string) {
		db, err := ReadUncertain(strings.NewReader(input), "fuzz")
		if err != nil {
			return // rejection is fine; crashing is not
		}
		if err := db.Validate(); err != nil {
			t.Fatalf("accepted database fails validation: %v\ninput: %q", err, input)
		}
		var buf bytes.Buffer
		if err := WriteUncertain(&buf, db); err != nil {
			t.Fatalf("accepted database fails to serialize: %v", err)
		}
		back, err := ReadUncertain(&buf, "fuzz2")
		if err != nil {
			t.Fatalf("round trip rejected: %v\nserialized: %q", err, buf.String())
		}
		if back.N() != db.N() {
			t.Fatalf("round trip changed N: %d → %d", db.N(), back.N())
		}
		for i, n := 0, db.N(); i < n; i++ {
			a, b := db.Tx(i), back.Tx(i)
			if a.Len() != b.Len() {
				t.Fatalf("transaction %d length changed: %d → %d", i, a.Len(), b.Len())
			}
			for j := range a.Items {
				if a.Items[j] != b.Items[j] {
					t.Fatalf("transaction %d unit %d item changed", i, j)
				}
			}
		}
	})
}

// FuzzReadFIMI: the deterministic-format parser under the same contract.
func FuzzReadFIMI(f *testing.F) {
	f.Add("1 2 3\n2 3\n")
	f.Add("")
	f.Add("0\n")
	f.Add("a b\n")
	f.Add("3 3 3\n")
	f.Add("-1 5\n")
	f.Fuzz(func(t *testing.T, input string) {
		d, err := ReadFIMI(strings.NewReader(input), "fuzz")
		if err != nil {
			return
		}
		for tid, tx := range d.Transactions {
			for i, it := range tx {
				if int(it) >= d.NumItems {
					t.Fatalf("transaction %d item %d outside declared universe", tid, it)
				}
				if i > 0 && tx[i-1] >= it {
					t.Fatalf("transaction %d not strictly sorted at %d", tid, i)
				}
			}
		}
		var buf bytes.Buffer
		if err := writeFIMI(&buf, d); err != nil {
			t.Fatalf("serialize: %v", err)
		}
		back, err := ReadFIMI(&buf, "fuzz2")
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if len(back.Transactions) != len(d.Transactions) {
			t.Fatalf("round trip changed transaction count")
		}
	})
}
