package core

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Result-set export. Mining outcomes feed downstream tooling (notebooks,
// dashboards, diffing between runs), so result sets serialize to CSV and
// JSON. NaN frequent probabilities (expected-support runs, PDUApriori's
// decision-only answers) serialize as empty CSV cells / null JSON values.

// WriteCSV writes rs as CSV: a header row, then one row per itemset with
// the itemset as a space-separated item list.
func (rs *ResultSet) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"itemset", "length", "esup", "var", "freq_prob"}); err != nil {
		return err
	}
	for _, r := range rs.Results {
		items := make([]string, len(r.Itemset))
		for i, it := range r.Itemset {
			items[i] = strconv.Itoa(int(it))
		}
		fp := ""
		// Frequent probability is meaningful only for probabilistic runs,
		// and even there PDUApriori reports NaN (decision-only answers).
		if rs.Semantics == Probabilistic && !math.IsNaN(r.FreqProb) {
			fp = strconv.FormatFloat(r.FreqProb, 'g', -1, 64)
		}
		row := []string{
			strings.Join(items, " "),
			strconv.Itoa(len(r.Itemset)),
			strconv.FormatFloat(r.ESup, 'g', -1, 64),
			strconv.FormatFloat(r.Var, 'g', -1, 64),
			fp,
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// resultJSON is the JSON shape of one result; FreqProb is a pointer so NaN
// becomes null rather than invalid JSON.
type resultJSON struct {
	Itemset  []int    `json:"itemset"`
	ESup     float64  `json:"esup"`
	Var      float64  `json:"var"`
	FreqProb *float64 `json:"freq_prob"`
}

type resultSetJSON struct {
	Algorithm string `json:"algorithm"`
	Semantics string `json:"semantics"`
	N         int    `json:"n"`
	Thresholds
	Results []resultJSON `json:"results"`
}

// WriteJSON writes rs as a single JSON document.
func (rs *ResultSet) WriteJSON(w io.Writer) error {
	doc := resultSetJSON{
		Algorithm:  rs.Algorithm,
		Semantics:  rs.Semantics.String(),
		N:          rs.N,
		Thresholds: rs.Thresholds,
		Results:    make([]resultJSON, len(rs.Results)),
	}
	for i, r := range rs.Results {
		items := make([]int, len(r.Itemset))
		for j, it := range r.Itemset {
			items[j] = int(it)
		}
		doc.Results[i] = resultJSON{Itemset: items, ESup: r.ESup, Var: r.Var}
		if !math.IsNaN(r.FreqProb) {
			fp := r.FreqProb
			doc.Results[i].FreqProb = &fp
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// ReadJSON parses a result set written by WriteJSON. Only the fields the
// export carries are restored (Stats are not serialized).
func ReadJSON(r io.Reader) (*ResultSet, error) {
	var doc resultSetJSON
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("core: decoding result set: %w", err)
	}
	rs := &ResultSet{
		Algorithm:  doc.Algorithm,
		N:          doc.N,
		Thresholds: doc.Thresholds,
		Results:    make([]Result, len(doc.Results)),
	}
	switch doc.Semantics {
	case Probabilistic.String():
		rs.Semantics = Probabilistic
	case ExpectedSupport.String():
		rs.Semantics = ExpectedSupport
	default:
		return nil, fmt.Errorf("core: unknown semantics %q", doc.Semantics)
	}
	for i, rj := range doc.Results {
		items := make(Itemset, len(rj.Itemset))
		for j, it := range rj.Itemset {
			if it < 0 {
				return nil, fmt.Errorf("core: negative item %d in result %d", it, i)
			}
			items[j] = Item(it)
		}
		if !items.IsCanonical() {
			return nil, fmt.Errorf("core: non-canonical itemset %v in result %d", items, i)
		}
		rs.Results[i] = Result{Itemset: items, ESup: rj.ESup, Var: rj.Var, FreqProb: math.NaN()}
		if rj.FreqProb != nil {
			rs.Results[i].FreqProb = *rj.FreqProb
		}
	}
	return rs, nil
}
