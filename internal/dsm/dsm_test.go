package dsm

import (
	"fmt"
	"testing"

	"tierdb/internal/device"
	"tierdb/internal/schema"
	"tierdb/internal/sscg"
	"tierdb/internal/storage"
	"tierdb/internal/value"
)

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

func TestBuildAndReadRoundTrip(t *testing.T) {
	fields, rows := makeRows(1000, 8)
	g, err := Build(fields, rows, storage.NewMemStore(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.Rows() != 1000 {
		t.Errorf("Rows = %d", g.Rows())
	}
	for _, r := range []int{0, 511, 512, 999} {
		got, err := g.ReadRow(r)
		if err != nil {
			t.Fatal(err)
		}
		for c := range got {
			if want := int64(r*1000 + c); got[c].Int() != want {
				t.Errorf("row %d field %d = %d, want %d", r, c, got[c].Int(), want)
			}
		}
	}
	v, err := g.ReadField(700, 3)
	if err != nil || v.Int() != 700003 {
		t.Errorf("ReadField = %v, %v", v, err)
	}
	if _, err := g.ReadRow(1000); err == nil {
		t.Error("out-of-range row accepted")
	}
	if _, err := g.ReadField(0, 8); err == nil {
		t.Error("out-of-range field accepted")
	}
}

func TestScanTouchesOnlyFieldRun(t *testing.T) {
	fields, rows := makeRows(10000, 10)
	clock := &storage.Clock{}
	store := storage.NewTimedStore(storage.NewMemStore(), device.XPoint, clock)
	g, err := Build(fields, rows, store, nil)
	if err != nil {
		t.Fatal(err)
	}
	clock.Reset()
	got, err := g.Scan(4, func(v value.Value) bool { return v.Int() == 1234004 }, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 1234 {
		t.Errorf("Scan = %v", got)
	}
	// Only field 4's run (10000 / 512 slots per page = 20 pages) read.
	if reads := clock.Reads(); reads != int64(g.FieldPageCount(4)) {
		t.Errorf("scan read %d pages, want %d", reads, g.FieldPageCount(4))
	}
	// Skip masks rows.
	got, err = g.Scan(4, func(v value.Value) bool { return v.Int()%1000 == 4 }, nil,
		func(r int) bool { return r != 7 })
	if err != nil || len(got) != 1 || got[0] != 7 {
		t.Errorf("Scan with skip = %v, %v", got, err)
	}
}

func TestDSMVsSSCGTradeoff(t *testing.T) {
	// The core format trade-off: DSM scans an attribute with ~W times
	// fewer page reads; SSCG reconstructs a tuple with ~W times fewer.
	const width = 10
	fields, rows := makeRows(5000, width)

	dsmClock := &storage.Clock{}
	dsmStore := storage.NewTimedStore(storage.NewMemStore(), device.XPoint, dsmClock)
	dsmGroup, err := Build(fields, rows, dsmStore, nil)
	if err != nil {
		t.Fatal(err)
	}

	rowClock := &storage.Clock{}
	rowStore := storage.NewTimedStore(storage.NewMemStore(), device.XPoint, rowClock)
	rowGroup, err := sscg.Build(fields, rows, rowStore, nil)
	if err != nil {
		t.Fatal(err)
	}

	pred := func(v value.Value) bool { return v.Int()%1000 == 3 }

	dsmClock.Reset()
	if _, err := dsmGroup.Scan(3, pred, nil, nil); err != nil {
		t.Fatal(err)
	}
	dsmScanReads := dsmClock.Reads()
	rowClock.Reset()
	if _, err := rowGroup.Scan(3, pred, nil, nil); err != nil {
		t.Fatal(err)
	}
	rowScanReads := rowClock.Reads()
	if dsmScanReads*5 > rowScanReads {
		t.Errorf("DSM scan (%d reads) should be ~%dx cheaper than SSCG scan (%d reads)",
			dsmScanReads, width, rowScanReads)
	}

	dsmClock.Reset()
	if _, err := dsmGroup.ReadRow(1234); err != nil {
		t.Fatal(err)
	}
	dsmRecReads := dsmClock.Reads()
	rowClock.Reset()
	if _, err := rowGroup.ReadRow(1234); err != nil {
		t.Fatal(err)
	}
	rowRecReads := rowClock.Reads()
	if rowRecReads != 1 || dsmRecReads != width {
		t.Errorf("reconstruction reads: SSCG %d (want 1), DSM %d (want %d)",
			rowRecReads, dsmRecReads, width)
	}
	if g, w := dsmGroup.PagesPerReconstruction(), width; g != w {
		t.Errorf("PagesPerReconstruction = %d, want %d", g, w)
	}
}

func TestBuildRejectsBadInput(t *testing.T) {
	if _, err := Build(nil, nil, storage.NewMemStore(), nil); err == nil {
		t.Error("empty fields accepted")
	}
	fields, rows := makeRows(3, 2)
	rows[1] = rows[1][:1]
	if _, err := Build(fields, rows, storage.NewMemStore(), nil); err == nil {
		t.Error("short row accepted")
	}
	_, rows = makeRows(3, 2)
	rows[0][1] = value.NewString("nope")
	if _, err := Build(fields, rows, storage.NewMemStore(), nil); err == nil {
		t.Error("type mismatch accepted")
	}
	wide := []schema.Field{{Name: "s", Type: value.String, Width: 5000}}
	if _, err := Build(wide, [][]value.Value{{value.NewString("x")}}, storage.NewMemStore(), nil); err == nil {
		t.Error("slot wider than page accepted")
	}
}

func TestMixedTypes(t *testing.T) {
	fields := []schema.Field{
		{Name: "id", Type: value.Int64},
		{Name: "price", Type: value.Float64},
		{Name: "tag", Type: value.String, Width: 10},
	}
	rows := [][]value.Value{
		{value.NewInt(1), value.NewFloat(2.5), value.NewString("alpha")},
		{value.NewInt(2), value.NewFloat(-1.25), value.NewString("beta")},
	}
	g, err := Build(fields, rows, storage.NewMemStore(), nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := g.ReadRow(1)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Int() != 2 || got[1].Float() != -1.25 || got[2].Str() != "beta" {
		t.Errorf("mixed row = %v", got)
	}
	if len(g.Fields()) != 3 || g.PageCount() != 3 {
		t.Errorf("Fields/PageCount = %d/%d", len(g.Fields()), g.PageCount())
	}
	if g.FieldPageCount(99) != 0 {
		t.Error("out-of-range FieldPageCount should be 0")
	}
}
