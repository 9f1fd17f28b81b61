package persist

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"tierdb/internal/schema"
	"tierdb/internal/table"
	"tierdb/internal/value"
)

func buildTable(t testing.TB, rows int) *table.Table {
	t.Helper()
	s := schema.MustNew([]schema.Field{
		{Name: "id", Type: value.Int64},
		{Name: "price", Type: value.Float64},
		{Name: "tag", Type: value.String, Width: 16},
	})
	tbl, err := table.New("snap", s, table.Options{})
	if err != nil {
		t.Fatal(err)
	}
	data := make([][]value.Value, rows)
	for i := range data {
		data[i] = []value.Value{
			value.NewInt(int64(i)),
			value.NewFloat(float64(i) * 1.5),
			value.NewString(fmt.Sprintf("tag-%d", i%5)),
		}
	}
	if err := tbl.BulkAppend(data); err != nil {
		t.Fatal(err)
	}
	if err := tbl.ApplyLayout([]bool{true, false, false}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex(0); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateCompositeIndex([]int{0, 2}); err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestSaveLoadRoundTrip(t *testing.T) {
	tbl := buildTable(t, 200)
	var buf bytes.Buffer
	if err := Save(&buf, tbl); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(&buf, table.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if restored.Name() != "snap" {
		t.Errorf("name = %q", restored.Name())
	}
	if restored.VisibleCount() != 200 {
		t.Errorf("rows = %d", restored.VisibleCount())
	}
	// Layout restored: id MRC, rest SSCG.
	layout := restored.Layout()
	if !layout[0] || layout[1] || layout[2] {
		t.Errorf("layout = %v", layout)
	}
	// Data intact across both tiers.
	for _, r := range []uint64{0, 42, 199} {
		got, err := restored.GetTuple(r)
		if err != nil {
			t.Fatal(err)
		}
		want, err := tbl.GetTuple(r)
		if err != nil {
			t.Fatal(err)
		}
		for c := range want {
			if !got[c].Equal(want[c]) {
				t.Errorf("row %d col %d: %v != %v", r, c, got[c], want[c])
			}
		}
	}
	// Indexes rebuilt.
	if restored.Index(0) == nil {
		t.Error("single-column index not rebuilt")
	}
	if len(restored.CompositeIndexes()) != 1 {
		t.Error("composite index not rebuilt")
	}
}

func TestSnapshotExcludesUncommittedAndDeleted(t *testing.T) {
	tbl := buildTable(t, 10)
	mgr := tbl.Manager()
	// Committed delete.
	tx := mgr.Begin()
	if err := tbl.Delete(tx, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Commit(tx); err != nil {
		t.Fatal(err)
	}
	// Uncommitted insert.
	tx2 := mgr.Begin()
	if err := tbl.Insert(tx2, []value.Value{
		value.NewInt(999), value.NewFloat(1), value.NewString("pending"),
	}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, tbl); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(&buf, table.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if restored.VisibleCount() != 9 {
		t.Errorf("restored rows = %d, want 9 (delete applied, pending insert dropped)", restored.VisibleCount())
	}
}

func TestSnapshotIncludesCommittedDelta(t *testing.T) {
	tbl := buildTable(t, 5)
	mgr := tbl.Manager()
	tx := mgr.Begin()
	if err := tbl.Insert(tx, []value.Value{
		value.NewInt(100), value.NewFloat(2), value.NewString("delta"),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Commit(tx); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, tbl); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(&buf, table.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if restored.VisibleCount() != 6 {
		t.Errorf("restored rows = %d, want 6", restored.VisibleCount())
	}
}

func TestLoadRejectsCorruptData(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("NOTADB00xxxx")), table.Options{}); !errors.Is(err, ErrBadSnapshot) {
		t.Errorf("foreign magic: %v", err)
	}
	if _, err := Load(bytes.NewReader(nil), table.Options{}); err == nil {
		t.Error("empty stream accepted")
	}
	// Truncated snapshot: take a valid prefix.
	tbl := buildTable(t, 20)
	var buf bytes.Buffer
	if err := Save(&buf, tbl); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{10, len(full) / 2, len(full) - 3} {
		if _, err := Load(bytes.NewReader(full[:cut]), table.Options{}); err == nil {
			t.Errorf("truncated snapshot at %d bytes accepted", cut)
		}
	}
}

func TestRoundTripSpecialValues(t *testing.T) {
	s := schema.MustNew([]schema.Field{
		{Name: "i", Type: value.Int64},
		{Name: "f", Type: value.Float64},
		{Name: "s", Type: value.String, Width: 8},
	})
	tbl, err := table.New("edge", s, table.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rows := [][]value.Value{
		{value.NewInt(-1 << 62), value.NewFloat(-0.0), value.NewString("")},
		{value.NewInt(1<<62 - 1), value.NewFloat(1e308), value.NewString("Ångström")},
	}
	if err := tbl.BulkAppend(rows); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Merge(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, tbl); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(&buf, table.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.GetTuple(1)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Int() != 1<<62-1 || got[1].Float() != 1e308 || got[2].Str() != "Ångström" {
		t.Errorf("special values corrupted: %v", got)
	}
}
