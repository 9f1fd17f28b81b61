package sscg

import (
	"fmt"
	"math/rand"
	"testing"

	"tierdb/internal/amm"
	"tierdb/internal/schema"
	"tierdb/internal/storage"
	"tierdb/internal/value"
)

// makeRows builds n rows over f int64 fields with deterministic values
// value(row, field) = row*1000 + field.
func makeRows(n, f int) ([]schema.Field, [][]value.Value) {
	fields := make([]schema.Field, f)
	for i := range fields {
		fields[i] = schema.Field{Name: fmt.Sprintf("c%d", i), Type: value.Int64}
	}
	rows := make([][]value.Value, n)
	for r := range rows {
		row := make([]value.Value, f)
		for c := range row {
			row[c] = value.NewInt(int64(r*1000 + c))
		}
		rows[r] = row
	}
	return fields, rows
}

func TestBuildPackedLayout(t *testing.T) {
	fields, rows := makeRows(100, 10) // rowWidth 80, 51 rows/page
	g, err := Build(fields, rows, storage.NewMemStore(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.rows != 100 {
		t.Errorf("Rows = %d", g.rows)
	}
	if g.RowWidth() != 80 {
		t.Errorf("RowWidth = %d", g.RowWidth())
	}
	if g.pagesPerRow != 1 {
		t.Errorf("PagesPerReconstruction = %d, want 1", g.pagesPerRow)
	}
	wantPages := (100 + 50) / 51 // 51 rows per 4096/80 page
	if g.PageCount() != wantPages {
		t.Errorf("PageCount = %d, want %d", g.PageCount(), wantPages)
	}
	if g.Bytes() != int64(wantPages)*storage.PageSize {
		t.Errorf("Bytes = %d", g.Bytes())
	}
}

func TestReadRowRoundTrip(t *testing.T) {
	fields, rows := makeRows(137, 7)
	g, err := Build(fields, rows, storage.NewMemStore(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []int{0, 1, 50, 136} {
		got, err := g.ReadRow(r)
		if err != nil {
			t.Fatal(err)
		}
		for c, v := range got {
			if want := int64(r*1000 + c); v.Int() != want {
				t.Errorf("row %d field %d = %d, want %d", r, c, v.Int(), want)
			}
		}
	}
	if _, err := g.ReadRow(137); err == nil {
		t.Error("out-of-range row accepted")
	}
	if _, err := g.ReadRow(-1); err == nil {
		t.Error("negative row accepted")
	}
}

func TestReadField(t *testing.T) {
	fields, rows := makeRows(60, 5)
	g, err := Build(fields, rows, storage.NewMemStore(), nil)
	if err != nil {
		t.Fatal(err)
	}
	v, err := g.ReadField(42, 3)
	if err != nil {
		t.Fatal(err)
	}
	if v.Int() != 42003 {
		t.Errorf("ReadField = %d", v.Int())
	}
	if _, err := g.ReadField(0, 9); err == nil {
		t.Error("out-of-range field accepted")
	}
}

func TestSpanningRowsWiderThanPage(t *testing.T) {
	// 600 int64 fields = 4800 bytes > 4096: rows span 2 pages (the
	// BSEG-like wide-table case).
	fields, rows := makeRows(20, 600)
	g, err := Build(fields, rows, storage.NewMemStore(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.pagesPerRow != 2 {
		t.Errorf("PagesPerReconstruction = %d, want 2", g.pagesPerRow)
	}
	if g.PageCount() != 40 {
		t.Errorf("PageCount = %d, want 40", g.PageCount())
	}
	for _, r := range []int{0, 7, 19} {
		got, err := g.ReadRow(r)
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < 600; c += 97 {
			if want := int64(r*1000 + c); got[c].Int() != want {
				t.Errorf("row %d field %d = %d, want %d", r, c, got[c].Int(), want)
			}
		}
	}
	// A field whose slot straddles the page boundary: offset 4092
	// would require field at byte 4088..4096; field 511 starts at
	// 511*8 = 4088, field 512 at 4096. Both must decode correctly.
	for _, f := range []int{511, 512} {
		v, err := g.ReadField(3, f)
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(3*1000 + f); v.Int() != want {
			t.Errorf("spanning field %d = %d, want %d", f, v.Int(), want)
		}
	}
}

func TestScan(t *testing.T) {
	fields, rows := makeRows(200, 4)
	g, err := Build(fields, rows, storage.NewMemStore(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Scan field 2 for value 123002 (row 123).
	got, err := g.Scan(2, func(v value.Value) bool { return v.Int() == 123002 }, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 123 {
		t.Errorf("Scan = %v", got)
	}
	// Range-style predicate.
	got, err = g.Scan(0, func(v value.Value) bool { return v.Int() < 5000 }, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 { // rows 0..4
		t.Errorf("range Scan hit %d rows, want 5", len(got))
	}
	// Skip masks rows.
	got, err = g.Scan(0, func(v value.Value) bool { return v.Int() < 5000 }, nil, func(r int) bool { return r == 0 })
	if err != nil || len(got) != 4 {
		t.Errorf("Scan with skip = %v, %v", got, err)
	}
	if _, err := g.Scan(9, nil, nil, nil); err == nil {
		t.Error("out-of-range scan field accepted")
	}
}

func TestProbe(t *testing.T) {
	fields, rows := makeRows(100, 3)
	g, err := Build(fields, rows, storage.NewMemStore(), nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := g.Probe(1, func(v value.Value) bool { return v.Int()%2000 == 1 }, []uint32{0, 2, 4, 6}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// value(r,1) = r*1000+1; %2000==1 for even r: all candidates match.
	if len(got) != 4 {
		t.Errorf("Probe = %v", got)
	}
	if _, err := g.Probe(7, nil, []uint32{0}, nil); err == nil {
		t.Error("out-of-range probe field accepted")
	}
}

func TestBuildRejectsBadRows(t *testing.T) {
	fields, rows := makeRows(3, 2)
	rows[1] = rows[1][:1] // short row
	if _, err := Build(fields, rows, storage.NewMemStore(), nil); err == nil {
		t.Error("short row accepted")
	}
	_, rows = makeRows(3, 2)
	rows[2][0] = value.NewString("wrong")
	if _, err := Build(fields, rows, storage.NewMemStore(), nil); err == nil {
		t.Error("wrong-typed row accepted")
	}
	if _, err := Build(nil, nil, storage.NewMemStore(), nil); err == nil {
		t.Error("empty fields accepted")
	}
}

func TestWithCache(t *testing.T) {
	fields, rows := makeRows(500, 8) // 64 rows/page, 8 pages
	store := storage.NewMemStore()
	cache, err := amm.New(4, store)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(fields, rows, store, cache)
	if err != nil {
		t.Fatal(err)
	}
	// Repeated access to the same row must hit the cache.
	for i := 0; i < 10; i++ {
		if _, err := g.ReadRow(42); err != nil {
			t.Fatal(err)
		}
	}
	st := cache.Stats()
	if st.Hits < 9 {
		t.Errorf("hits = %d, want >= 9", st.Hits)
	}
	// Zipfian-style skewed accesses should see a high hit rate even
	// with a small cache.
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.5, 1, uint64(g.rows-1))
	for i := 0; i < 2000; i++ {
		if _, err := g.ReadRow(int(zipf.Uint64())); err != nil {
			t.Fatal(err)
		}
	}
	if hr := cache.Stats().HitRate(); hr < 0.5 {
		t.Errorf("zipfian hit rate = %.2f, want > 0.5", hr)
	}
}

func TestMixedTypeRows(t *testing.T) {
	fields := []schema.Field{
		{Name: "id", Type: value.Int64},
		{Name: "name", Type: value.String, Width: 12},
		{Name: "amount", Type: value.Float64},
	}
	rows := [][]value.Value{
		{value.NewInt(1), value.NewString("alpha"), value.NewFloat(1.5)},
		{value.NewInt(2), value.NewString("bravo"), value.NewFloat(-2.25)},
	}
	g, err := Build(fields, rows, storage.NewMemStore(), nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := g.ReadRow(1)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Int() != 2 || got[1].Str() != "bravo" || got[2].Float() != -2.25 {
		t.Errorf("mixed row = %v", got)
	}
	if g.FieldIndex("name") != 1 || g.FieldIndex("missing") != -1 {
		t.Error("FieldIndex wrong")
	}
	if len(g.fields) != 3 {
		t.Error("Fields wrong")
	}
}

func TestSpanningScanAndProbe(t *testing.T) {
	fields, rows := makeRows(30, 600) // spanning layout
	g, err := Build(fields, rows, storage.NewMemStore(), nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := g.Scan(599, func(v value.Value) bool { return v.Int() == 7*1000+599 }, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 7 {
		t.Errorf("spanning Scan = %v", got)
	}
	got, err = g.Probe(0, func(v value.Value) bool { return true }, []uint32{3, 9}, nil)
	if err != nil || len(got) != 2 {
		t.Errorf("spanning Probe = %v, %v", got, err)
	}
}
