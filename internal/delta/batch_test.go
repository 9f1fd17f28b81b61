package delta

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"tierdb/internal/schema"
	"tierdb/internal/value"
)

func batchSchema() *schema.Schema {
	return schema.MustNew([]schema.Field{
		{Name: "i", Type: value.Int64},
		{Name: "f", Type: value.Float64},
		{Name: "s", Type: value.String, Width: 8},
	})
}

var specialFloats = []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1)}

// drawCell draws a value of column col's type from a small domain, so
// duplicates are heavy; floats include NaN, -0, +0 and ±Inf, strings "".
func drawCell(rng *rand.Rand, col int) value.Value {
	switch col {
	case 0:
		return value.NewInt(int64(rng.Intn(30) - 10))
	case 1:
		if rng.Intn(4) == 0 {
			return value.NewFloat(specialFloats[rng.Intn(len(specialFloats))])
		}
		return value.NewFloat(float64(rng.Intn(20)-10) / 4)
	}
	return value.NewString([]string{"", "a", "b", "ab", "zz", "m"}[rng.Intn(6)])
}

func drawRows(rng *rand.Rand, n int) [][]value.Value {
	rows := make([][]value.Value, n)
	for r := range rows {
		rows[r] = []value.Value{drawCell(rng, 0), drawCell(rng, 1), drawCell(rng, 2)}
	}
	return rows
}

// identical reports whether a and b are the same value bit for bit: a
// -0 is not a +0 and a NaN is itself.
func identical(a, b value.Value) bool {
	if a.Type() != b.Type() {
		return false
	}
	if a.Type() == value.Float64 {
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	}
	return a.Equal(b)
}

// sameDelta fails the test unless got, fed in batches, holds what want,
// fed one row at a time, holds: dictionaries and codes, rows, distinct
// counts, footprint, and the positions every ScanEqual of a stored value
// and a set of random ScanRanges return.
func sameDelta(t *testing.T, rng *rand.Rand, got, want *Partition) {
	t.Helper()
	if got.Rows() != want.Rows() || got.Bytes() != want.Bytes() {
		t.Fatalf("Rows %d Bytes %d, want %d %d", got.Rows(), got.Bytes(), want.Rows(), want.Bytes())
	}
	for col := 0; col < 3; col++ {
		gv, gc := got.Column(col)
		wv, wc := want.Column(col)
		if gv.Len() != wv.Len() || !slices.Equal(gc, wc) || got.DistinctCount(col) != want.DistinctCount(col) {
			t.Fatalf("column %d: %d values %v, want %d %v", col, gv.Len(), gc, wv.Len(), wc)
		}
		for i := 0; i < wv.Len(); i++ {
			if !identical(gv.At(i), wv.At(i)) {
				t.Fatalf("column %d value %d = %v, want %v", col, i, gv.At(i), wv.At(i))
			}
			g, err := got.ScanEqual(col, wv.At(i), 1, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			w, _ := want.ScanEqual(col, wv.At(i), 1, 0, nil)
			if !slices.Equal(g, w) {
				t.Fatalf("column %d ScanEqual(%v) = %v, want %v", col, wv.At(i), g, w)
			}
		}
		for range 20 {
			lo, hi := drawCell(rng, col), drawCell(rng, col)
			g, err := got.ScanRange(col, lo, hi, 1, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			w, _ := want.ScanRange(col, lo, hi, 1, 0, nil)
			if !slices.Equal(g, w) {
				t.Fatalf("column %d ScanRange(%v, %v) = %v, want %v", col, lo, hi, g, w)
			}
		}
	}
	for pos := 0; pos < want.Rows(); pos++ {
		g, err := got.GetRow(pos)
		if err != nil {
			t.Fatal(err)
		}
		w, _ := want.GetRow(pos)
		if !slices.EqualFunc(g, w, identical) {
			t.Fatalf("GetRow(%d) = %v, want %v", pos, g, w)
		}
	}
}

// TestBatchMatchesRowByRow appends random batches to an empty and to a
// non-empty partition and requires what appending the same rows one at
// a time gives. A batch with one mistyped row, and a batch into a frozen
// partition, must leave the partition as it was.
func TestBatchMatchesRowByRow(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for trial := 0; trial < 300; trial++ {
		batched, single := New(batchSchema()), New(batchSchema())
		var prefix [][]value.Value
		if trial%2 == 1 {
			prefix = drawRows(rng, 1+rng.Intn(60))
		}
		batch := drawRows(rng, rng.Intn(200))
		for _, rows := range [][][]value.Value{prefix, batch} {
			first, err := batched.AppendRows(rows, 1)
			if err != nil || first != single.Rows() {
				t.Fatalf("trial %d: AppendRows = %d, %v; want %d", trial, first, err, single.Rows())
			}
			for _, row := range rows {
				if _, err := single.Append(row, 1); err != nil {
					t.Fatal(err)
				}
			}
		}
		sameDelta(t, rng, batched, single)

		bad := drawRows(rng, 1+rng.Intn(20))
		bad[rng.Intn(len(bad))][rng.Intn(3)] = value.NewString("bad")
		bad[len(bad)-1] = bad[len(bad)-1][:2]
		if _, err := batched.AppendRows(bad, 1); err == nil {
			t.Fatalf("trial %d: a batch with bad rows was accepted", trial)
		}
		sameDelta(t, rng, batched, single)

		batched.Freeze()
		if _, err := batched.AppendRows(drawRows(rng, 3), 1); !errors.Is(err, ErrFrozen) {
			t.Fatalf("trial %d: append to a frozen partition: %v", trial, err)
		}
		sameDelta(t, rng, batched, single)
	}
}
