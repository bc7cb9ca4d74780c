package market

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"
)

// ReadCSV parses one or more markets from the CSV layout WriteSetCSV
// produces (and the Kaggle dataset uses). Rows may arrive unsorted and may
// interleave instance types; they are grouped and sorted per market.
// Duplicate timestamps within one market keep the last row.
func ReadCSV(r io.Reader) (TraceSet, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("market: reading CSV: %w", err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("market: empty CSV")
	}
	start := 0
	if len(rows[0]) >= 3 && rows[0][0] == "timestamp" {
		start = 1 // header
	}
	byType := make(map[string][]Record)
	for i, row := range rows[start:] {
		if len(row) < 3 {
			return nil, fmt.Errorf("market: CSV row %d has %d columns, want 3", i+start+1, len(row))
		}
		at, err := time.Parse(time.RFC3339, row[0])
		if err != nil {
			return nil, fmt.Errorf("market: CSV row %d timestamp: %w", i+start+1, err)
		}
		price, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			return nil, fmt.Errorf("market: CSV row %d price: %w", i+start+1, err)
		}
		byType[row[1]] = append(byType[row[1]], Record{At: at, Price: price})
	}
	set := make(TraceSet, len(byType))
	for name, recs := range byType {
		sort.SliceStable(recs, func(i, j int) bool { return recs[i].At.Before(recs[j].At) })
		// Deduplicate equal timestamps, keeping the last occurrence.
		out := recs[:0]
		for _, rec := range recs {
			if len(out) > 0 && out[len(out)-1].At.Equal(rec.At) {
				out[len(out)-1] = rec
				continue
			}
			out = append(out, rec)
		}
		tr := &Trace{Type: name, Records: append([]Record(nil), out...)}
		if err := tr.Validate(); err != nil {
			return nil, fmt.Errorf("market: CSV market %q: %w", name, err)
		}
		set[name] = tr
	}
	return set, nil
}

// WriteSetCSV serializes a TraceSet as `timestamp,instance_type,price`
// rows, the layout of the Kaggle "AWS Spot Pricing Market" dataset the
// paper trains on (§IV-A1), markets in name order.
func WriteSetCSV(w io.Writer, set TraceSet) error {
	if err := set.Validate(); err != nil {
		return err
	}
	names := make([]string, 0, len(set))
	for name := range set {
		names = append(names, name)
	}
	sort.Strings(names)
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"timestamp", "instance_type", "price"}); err != nil {
		return err
	}
	for _, name := range names {
		for _, r := range set[name].Records {
			err := cw.Write([]string{
				r.At.UTC().Format(time.RFC3339),
				name,
				strconv.FormatFloat(r.Price, 'f', -1, 64),
			})
			if err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
