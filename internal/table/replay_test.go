package table

import (
	"math"
	"testing"

	"tierdb/internal/mvcc"
	"tierdb/internal/schema"
	"tierdb/internal/value"
)

func replayTestTable(t *testing.T) (*Table, *mvcc.Manager) {
	t.Helper()
	s := schema.MustNew([]schema.Field{
		{Name: "id", Type: value.Int64},
		{Name: "tag", Type: value.String, Width: 8},
	})
	mgr := mvcc.NewManager()
	tbl, err := New("t", s, Options{Manager: mgr})
	if err != nil {
		t.Fatal(err)
	}
	return tbl, mgr
}

func replayRow(id int64, tag string) []value.Value {
	return []value.Value{value.NewInt(id), value.NewString(tag)}
}

func TestBulkAppendAtVisibility(t *testing.T) {
	tbl, mgr := replayTestTable(t)
	if err := tbl.BulkAppendAt([][]value.Value{replayRow(1, "a"), replayRow(2, "b")}, 5); err != nil {
		t.Fatal(err)
	}
	v := tbl.Pin()
	defer v.Release()
	vers := v.Active().Versions()
	if n := vers.LiveAt(4); n != 0 {
		t.Fatalf("rows visible before their commit ts: %d", n)
	}
	if n := vers.LiveAt(5); n != 2 {
		t.Fatalf("rows at ts 5: %d, want 2", n)
	}
	mgr.AdvanceTo(5)
	if n := tbl.VisibleCount(); n != 2 {
		t.Fatalf("visible count %d, want 2", n)
	}
}

func TestReplayInsertDeleteAcrossMerge(t *testing.T) {
	tbl, mgr := replayTestTable(t)
	if err := tbl.ReplayCommit(2, []mvcc.RedoOp{{Table: "t", Row: replayRow(1, "a")}}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.ReplayCommit(3, []mvcc.RedoOp{{Table: "t", Row: replayRow(2, "b")}}); err != nil {
		t.Fatal(err)
	}
	mgr.AdvanceTo(3)
	// Merge moves the rows into the main partition: positions change,
	// but content-addressed delete replay must still find row 1.
	if err := tbl.Merge(); err != nil {
		t.Fatal(err)
	}
	if err := tbl.ReplayCommit(4, []mvcc.RedoOp{{Table: "t", Row: replayRow(3, "c")}}); err != nil {
		t.Fatal(err)
	}
	mgr.AdvanceTo(4)
	if err := tbl.ReplayDelete(replayRow(1, "a"), 5); err != nil {
		t.Fatal(err)
	}
	if err := tbl.ReplayDelete(replayRow(3, "c"), 6); err != nil {
		t.Fatal(err)
	}
	mgr.AdvanceTo(6)
	if n := tbl.VisibleCount(); n != 1 {
		t.Fatalf("visible count after replayed deletes: %d, want 1", n)
	}
	// The survivor is row 2.
	found := false
	v := tbl.Pin()
	defer v.Release()
	for id := RowID(0); id < RowID(tbl.MainRows()+tbl.DeltaRows()); id++ {
		if v.Visible(id, 6, 0) {
			tuple, err := tbl.GetTuple(id)
			if err != nil {
				t.Fatal(err)
			}
			if !rowsEqual(tuple, replayRow(2, "b")) {
				t.Fatalf("survivor = %v, want row 2", tuple)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("no visible row found")
	}
	// Deleting a row that no longer exists is a replay error.
	if err := tbl.ReplayDelete(replayRow(1, "a"), 7); err == nil {
		t.Fatal("replaying a delete with no matching live row must fail")
	}
}

func TestReplayDeleteDuplicateContent(t *testing.T) {
	tbl, mgr := replayTestTable(t)
	// Two identical rows: deleting one must leave exactly one live.
	if err := tbl.BulkAppendAt([][]value.Value{replayRow(7, "x"), replayRow(7, "x")}, 2); err != nil {
		t.Fatal(err)
	}
	mgr.AdvanceTo(2)
	if err := tbl.ReplayDelete(replayRow(7, "x"), 3); err != nil {
		t.Fatal(err)
	}
	mgr.AdvanceTo(3)
	if n := tbl.VisibleCount(); n != 1 {
		t.Fatalf("visible count %d, want 1 (multiset delete)", n)
	}
}

// TestReplayDeleteMainMultiset replays content-addressed deletes onto a
// merged main whose rows repeat, share their MRC codes while their SSCG
// values differ, and hold NaN and -0: each delete stamps one live row of
// its content, as value.Equal judges it, until none is left; a value no
// MRC dictionary holds matches no row.
func TestReplayDeleteMainMultiset(t *testing.T) {
	s := schema.MustNew([]schema.Field{
		{Name: "id", Type: value.Int64},
		{Name: "amount", Type: value.Float64},
		{Name: "tag", Type: value.String, Width: 8},
	})
	row := func(id int64, amount float64, tag string) []value.Value {
		return []value.Value{value.NewInt(id), value.NewFloat(amount), value.NewString(tag)}
	}
	rows := [][]value.Value{
		row(1, 2.5, "x"), row(1, 2.5, "y"), row(1, 2.5, "x"), row(2, math.NaN(), "z"),
		row(1, 2.5, "y"), row(1, math.Copysign(0, -1), "x"), row(1, 2.5, "x"),
	}
	for _, layout := range [][]bool{{true, false, false}, {false, false, false}, {true, true, false}} {
		mgr := mvcc.NewManager()
		tbl, err := New("t", s, Options{Manager: mgr})
		if err != nil {
			t.Fatal(err)
		}
		if err := tbl.BulkAppendAt(rows, 2); err != nil {
			t.Fatal(err)
		}
		mgr.AdvanceTo(2)
		if err := tbl.ApplyLayout(layout); err != nil {
			t.Fatal(err)
		}
		ts := mvcc.Timestamp(2)
		replay := func(tuple []value.Value, times int) {
			t.Helper()
			for i := 0; i < times; i++ {
				ts++
				if err := tbl.ReplayDelete(tuple, ts); err != nil {
					t.Fatalf("layout %v: delete %d of %v: %v", layout, i+1, tuple, err)
				}
			}
			if err := tbl.ReplayDelete(tuple, ts+1); err == nil {
				t.Fatalf("layout %v: a delete of %v past its %d rows found a row", layout, tuple, times)
			}
		}
		replay(row(1, 2.5, "y"), 2)
		mgr.AdvanceTo(ts)
		if n := tbl.VisibleCount(); n != 5 {
			t.Fatalf("layout %v: %d rows visible, want 5", layout, n)
		}
		replay(row(1, 0, "x"), 1) // the -0 row
		replay(row(2, math.NaN(), "z"), 1)
		replay(row(1, 2.5, "x"), 3)
		if err := tbl.ReplayDelete(row(99, 2.5, "x"), ts+1); err == nil {
			t.Fatalf("layout %v: a delete of an id no row holds found a row", layout)
		}
		mgr.AdvanceTo(ts)
		if n := tbl.VisibleCount(); n != 0 {
			t.Fatalf("layout %v: %d rows visible after every row's delete, want 0", layout, n)
		}
	}
}
