package table

import (
	"fmt"
	"testing"

	"tierdb/internal/histogram"
	"tierdb/internal/schema"
	"tierdb/internal/value"
)

// benchSchema builds an all-Int64 schema of the given width.
func benchSchema(b *testing.B, cols int) *schema.Schema {
	b.Helper()
	fields := make([]schema.Field, cols)
	for c := range fields {
		fields[c] = schema.Field{Name: fmt.Sprintf("c%d", c), Type: value.Int64}
	}
	s, err := schema.New(fields)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// benchStatsRows builds rows where column c has ~rows/(c+1) distinct
// values, so the hash sets in the old pass stay large.
func benchStatsRows(rows, cols int) [][]value.Value {
	out := make([][]value.Value, rows)
	for r := range out {
		row := make([]value.Value, cols)
		for c := range row {
			row[c] = value.NewInt(int64(r % (rows/(c+1) + 1)))
		}
		out[r] = row
	}
	return out
}

// oldDistinctPass is the seed's replaced statistics pass, verbatim in
// structure: per column, gather the values column-major, insert every
// one into a fresh map[value.Value]struct{} for the distinct count —
// O(columns x rows) map operations — and then build the histogram the
// executor needs anyway. Kept here (not in production code) as the
// benchmark baseline.
func oldDistinctPass(b *testing.B, s *schema.Schema, rows [][]value.Value) []int {
	distinct := make([]int, s.Len())
	colVals := make([]value.Value, len(rows))
	for col := 0; col < s.Len(); col++ {
		seen := make(map[value.Value]struct{}, 64)
		for r := range rows {
			colVals[r] = rows[r][col]
			seen[rows[r][col]] = struct{}{}
		}
		distinct[col] = len(seen)
		if _, err := histogram.Build(s.Field(col).Type, colVals, histogramBuckets); err != nil {
			b.Fatal(err)
		}
	}
	return distinct
}

// newDistinctPass mirrors buildMain's statistics half: one
// transposition, then per-column histogram builds whose sorted pass
// yields the distinct count as a side effect (plus the histogram the
// executor wants anyway).
func newDistinctPass(b *testing.B, s *schema.Schema, rows [][]value.Value) []int {
	colVals := make([][]value.Value, s.Len())
	for c := range colVals {
		colVals[c] = make([]value.Value, len(rows))
	}
	for r, row := range rows {
		for c, v := range row {
			colVals[c][r] = v
		}
	}
	distinct := make([]int, s.Len())
	for col := 0; col < s.Len(); col++ {
		h, err := histogram.Build(s.Field(col).Type, colVals[col], histogramBuckets)
		if err != nil {
			b.Fatal(err)
		}
		distinct[col] = h.DistinctCount()
	}
	return distinct
}

// BenchmarkColumnStats compares the merge rebuild's statistics pass
// before and after the rework. Both variants end up with histograms
// and distinct counts for every column; the old one additionally paid
// columns x rows hash-map inserts to get counts the histogram's sorted
// pass now yields for free.
func BenchmarkColumnStats(b *testing.B) {
	const rows, cols = 20_000, 8
	s := benchSchema(b, cols)
	data := benchStatsRows(rows, cols)
	b.Run("old_hashset", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if d := oldDistinctPass(b, s, data); d[0] == 0 {
				b.Fatal("zero distinct")
			}
		}
	})
	b.Run("new_histogram", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if d := newDistinctPass(b, s, data); d[0] == 0 {
				b.Fatal("zero distinct")
			}
		}
	})
}

// BenchmarkMergeRebuild measures the online merge's shadow-rebuild core
// (MRCs + SSCG + statistics for a tiered layout) at a fixed row count.
func BenchmarkMergeRebuild(b *testing.B) {
	const rows = 10_000
	tbl, err := New("bench", testSchema(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	data := make([][]value.Value, rows)
	for i := range data {
		data[i] = row(int64(i), int64(i%10), fmt.Sprintf("n%d", i%4))
	}
	if err := tbl.BulkAppend(data); err != nil {
		b.Fatal(err)
	}
	layout := []bool{true, false, false}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := tbl.buildMain(layout, data)
		if err != nil {
			b.Fatal(err)
		}
		if m.group != nil {
			if err := m.group.Free(); err != nil {
				b.Fatal(err)
			}
		}
	}
}
