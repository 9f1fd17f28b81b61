package sscg

import (
	"fmt"
	"math/rand"
	"testing"

	"tierdb/internal/schema"
	"tierdb/internal/storage"
	"tierdb/internal/value"
)

// FuzzRowRoundtrip drives Build and the three read paths (ReadRow,
// ReadField, Scan/ScanRows) over arbitrary field widths and row counts,
// including rows wider than one 4 KB page (the spanning layout) and
// rows that fill a page exactly. Every decoded value must equal the
// encoded input, and scans must match a brute-force oracle.
func FuzzRowRoundtrip(f *testing.F) {
	f.Add(uint16(10), uint16(8), uint8(2), int64(1))
	f.Add(uint16(3), uint16(4500), uint8(3), int64(2)) // row wider than a page
	f.Add(uint16(5), uint16(4072), uint8(0), int64(3)) // exactly one row per page
	f.Add(uint16(7), uint16(4081), uint8(0), int64(4)) // just over a page
	f.Add(uint16(1), uint16(1), uint8(4), int64(5))
	f.Add(uint16(100), uint16(40), uint8(1), int64(6))
	f.Fuzz(func(t *testing.T, nRows, strWidth uint16, extraInts uint8, seed int64) {
		rows := int(nRows%128) + 1
		width := int(strWidth%5000) + 1
		extra := int(extraInts % 5)
		fields := []schema.Field{
			{Name: "i", Type: value.Int64},
			{Name: "f", Type: value.Float64},
			{Name: "s", Type: value.String, Width: width},
		}
		for e := 0; e < extra; e++ {
			fields = append(fields, schema.Field{Name: fmt.Sprintf("x%d", e), Type: value.Int64})
		}
		rowWidth := 0
		for _, fd := range fields {
			rowWidth += fd.SlotWidth()
		}

		rng := rand.New(rand.NewSource(seed))
		data := make([][]value.Value, rows)
		for r := range data {
			row := make([]value.Value, len(fields))
			for c, fd := range fields {
				switch fd.Type {
				case value.Int64:
					row[c] = value.NewInt(rng.Int63n(1000) - 500)
				case value.Float64:
					row[c] = value.NewFloat(float64(rng.Intn(2000)) / 4)
				default:
					// Strings stay within the slot width and free of
					// trailing NULs, so encoding is lossless.
					b := make([]byte, rng.Intn(width+1))
					for i := range b {
						b[i] = byte('a' + rng.Intn(26))
					}
					row[c] = value.NewString(string(b))
				}
			}
			data[r] = row
		}

		g, err := Build(fields, data, storage.NewMemStore(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if rowWidth <= storage.PageSize {
			if g.pagesPerRow != 1 {
				t.Fatalf("row width %d: packed layout expected, got %d pages/row", rowWidth, g.pagesPerRow)
			}
		} else {
			want := (rowWidth + storage.PageSize - 1) / storage.PageSize
			if g.pagesPerRow != want {
				t.Fatalf("row width %d: %d pages/row, want %d", rowWidth, g.pagesPerRow, want)
			}
		}

		for r, wantRow := range data {
			got, err := g.ReadRow(r)
			if err != nil {
				t.Fatalf("ReadRow(%d): %v", r, err)
			}
			for c := range wantRow {
				if !got[c].Equal(wantRow[c]) {
					t.Fatalf("ReadRow(%d) field %d = %v, want %v", r, c, got[c], wantRow[c])
				}
			}
		}
		for i := 0; i < 20; i++ {
			r, c := rng.Intn(rows), rng.Intn(len(fields))
			got, err := g.ReadField(r, c)
			if err != nil {
				t.Fatalf("ReadField(%d, %d): %v", r, c, err)
			}
			if !got.Equal(data[r][c]) {
				t.Fatalf("ReadField(%d, %d) = %v, want %v", r, c, got, data[r][c])
			}
		}

		// Scan a random field for a value that exists, against an oracle.
		field := rng.Intn(len(fields))
		needle := data[rng.Intn(rows)][field]
		pred := func(v value.Value) bool { return v.Equal(needle) }
		got, err := g.Scan(field, pred, nil, nil)
		if err != nil {
			t.Fatalf("Scan: %v", err)
		}
		var want []uint32
		for r := range data {
			if data[r][field].Equal(needle) {
				want = append(want, uint32(r))
			}
		}
		if len(got) != len(want) {
			t.Fatalf("Scan found %d rows, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Scan[%d] = %d, want %d", i, got[i], want[i])
			}
		}

		// ScanRows over a random sub-range equals the oracle restricted
		// to that range (the morsel-driven executor's contract).
		lo := rng.Intn(rows + 1)
		hi := lo + rng.Intn(rows+1-lo)
		got, err = g.ScanRows(field, pred, lo, hi, nil, nil)
		if err != nil {
			t.Fatalf("ScanRows(%d, %d): %v", lo, hi, err)
		}
		want = want[:0]
		for r := lo; r < hi; r++ {
			if data[r][field].Equal(needle) {
				want = append(want, uint32(r))
			}
		}
		if len(got) != len(want) {
			t.Fatalf("ScanRows(%d, %d) found %d rows, want %d", lo, hi, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("ScanRows[%d] = %d, want %d", i, got[i], want[i])
			}
		}
	})
}
