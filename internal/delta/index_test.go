package delta

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"tierdb/internal/dict"
	"tierdb/internal/value"
)

// cellOf maps a byte to a value of column col's type (batchSchema): a
// small domain, so duplicates are heavy, that every b below 40 covers.
// Floats include NaN of two signs, -0, +0 and ±Inf; strings "" and a
// zero byte.
func cellOf(col int, b byte) value.Value {
	switch col {
	case 0:
		return value.NewInt(int64(b%30) - 10)
	case 1:
		if special := []float64{math.NaN(), math.Copysign(math.NaN(), -1), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1)}; b%10 < 6 {
			return value.NewFloat(special[b%10])
		}
		return value.NewFloat(float64(int(b%40)-20) / 4)
	}
	return value.NewString([]string{"", "a", "b", "ab", "zz", "m", "a\x00", "\x00"}[b%8])
}

// checkIndexes appends the rows data encodes to an empty partition and
// requires every index answer to equal a brute-force scan of the rows:
// the delta's ScanEqual and ScanRange, and the Eq and Between of the
// main-partition index built from the delta's columns — through
// dict.Merge, as a merge builds an MRC, and through dict.Build, as one
// builds an indexed SSCG column. Each four bytes are a row and a flag
// that ends the batch after it, so rows arrive one at a time and in
// batches. Probes are the whole domain, as equalities and as ranges with
// lo below, equal to and above hi.
func checkIndexes(t testing.TB, data []byte) {
	t.Helper()
	p := New(batchSchema())
	var rows, batch [][]value.Value
	for ; len(data) >= 4; data = data[4:] {
		row := []value.Value{cellOf(0, data[0]), cellOf(1, data[1]), cellOf(2, data[2])}
		rows, batch = append(rows, row), append(batch, row)
		if data[3]%4 == 0 || len(data) < 8 {
			if _, err := p.AppendRows(batch, 1); err != nil {
				t.Fatal(err)
			}
			batch = nil
		}
	}
	scan := func(col int, match func(value.Value) bool) []uint32 {
		var out []uint32
		for r, row := range rows {
			if match(row[col]) {
				out = append(out, uint32(r))
			}
		}
		return out
	}
	for col := 0; col < 3; col++ {
		vals, codes := p.Column(col)
		merged, mergedCodes := dict.Merge(vals.Type, nil, nil, vals, codes)
		column := make([]value.Value, len(codes))
		for r, c := range codes {
			column[r] = vals.At(int(c))
		}
		built, builtCodes, err := dict.Build(vals.Type, column)
		if err != nil {
			t.Fatal(err)
		}
		mains := []*dict.Index{dict.NewIndex(merged, mergedCodes), dict.NewIndex(built, builtCodes)}
		for b := byte(0); b < 40; b++ {
			v := cellOf(col, b)
			want := scan(col, v.Equal)
			got, err := p.ScanEqual(col, v, 1, 0, nil)
			if err != nil || !slices.Equal(got, want) {
				t.Fatalf("column %d: delta ScanEqual(%v) = %v, %v; want %v", col, v, got, err, want)
			}
			for _, idx := range mains {
				if got := idx.Eq(v); !slices.Equal(got, want) {
					t.Fatalf("column %d: main Eq(%v) = %v, want %v", col, v, got, want)
				}
			}
			for _, hb := range []byte{b, (b*7 + 3) % 40, (b*13 + 29) % 40} {
				lo, hi := v, cellOf(col, hb)
				want := scan(col, func(x value.Value) bool { return x.Compare(lo) >= 0 && x.Compare(hi) <= 0 })
				got, err := p.ScanRange(col, lo, hi, 1, 0, nil)
				slices.Sort(got)
				if err != nil || !slices.Equal(got, want) {
					t.Fatalf("column %d: delta ScanRange(%v, %v) = %v, %v; want %v", col, lo, hi, got, err, want)
				}
				// The main groups the positions by value, each group ascending.
				slices.SortStableFunc(want, func(a, b uint32) int { return rows[a][col].Compare(rows[b][col]) })
				for _, idx := range mains {
					if got := idx.Between(lo, hi); !slices.Equal(got, want) {
						t.Fatalf("column %d: main Between(%v, %v) = %v, want %v", col, lo, hi, got, want)
					}
				}
			}
		}
	}
}

// TestIndexMatchesScan runs checkIndexes on the empty partition and on
// seeded random ones of up to 150 rows.
func TestIndexMatchesScan(t *testing.T) {
	checkIndexes(t, nil)
	rng := rand.New(rand.NewSource(39))
	for trial := 0; trial < 200; trial++ {
		data := make([]byte, 4*rng.Intn(150))
		rng.Read(data)
		checkIndexes(t, data)
	}
}

// FuzzIndexMatchesScan is checkIndexes over arbitrary input.
func FuzzIndexMatchesScan(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 1, 1, 1, 1, 0, 10, 6, 4})
	f.Add([]byte("\x05\x00\x07\x01\x05\x01\x07\x00\x11\x02\x03\x02\x11\x03\x03\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkIndexes(t, data[:min(len(data), 4*512)])
	})
}
