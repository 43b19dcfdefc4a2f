package table

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// LoadCSV reads CSV records from r into a fresh staging table with the same
// schema as t and returns it. Loading into a staging table and swapping is
// what makes the engine's ingest command atomic (paper §II-A2): if any
// record fails to parse, the original table is untouched.
//
// If the first record consists exactly of the schema's column names
// (case-insensitive), it is treated as a header and skipped.
func LoadCSV(t *Table, r io.Reader) (*Table, error) {
	stage, err := New(t.Name, t.Schema())
	if err != nil {
		return nil, err
	}
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = t.NumCols()
	cr.ReuseRecord = true
	first := true
	line := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("graql: ingest %s: %w", t.Name, err)
		}
		line++
		if first {
			first = false
			if isHeader(rec, t.Schema()) {
				continue
			}
		}
		if err := stage.AppendStrings(rec); err != nil {
			return nil, fmt.Errorf("graql: ingest %s line %d: %w", t.Name, line, err)
		}
	}
	stage.fit()
	return stage, nil
}

func isHeader(rec []string, s Schema) bool {
	if len(rec) != len(s) {
		return false
	}
	for i, f := range rec {
		if !strings.EqualFold(strings.TrimSpace(f), s[i].Name) {
			return false
		}
	}
	return true
}

// WriteCSV writes the table (with a header row) to w in CSV format.
func WriteCSV(t *Table, w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Schema().Names()); err != nil {
		return err
	}
	rec := make([]string, t.NumCols())
	for r := uint32(0); r < uint32(t.NumRows()); r++ {
		for c := 0; c < t.NumCols(); c++ {
			v := t.Value(r, c)
			if v.IsNull() {
				rec[c] = ""
			} else {
				rec[c] = v.String()
			}
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
