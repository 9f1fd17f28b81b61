package exec

import (
	"slices"
	"testing"

	"tierdb/internal/mvcc"
	"tierdb/internal/value"
)

// TestQuerySnapshotAcrossPurgingMerge queries on each side of the
// merge's purge watermark after a merge that carried a deleted row. A
// transaction begun before the delete holds a registered snapshot, so
// the swap re-bases the row and the transaction still finds it. A query
// outside a transaction reads its snapshot with its pin, so it finds the
// merged state: the new row, not the deleted one.
func TestQuerySnapshotAcrossPurgingMerge(t *testing.T) {
	tbl, _ := newTable(t, 100, nil)
	e := New(tbl, Options{})
	mgr := tbl.Manager()
	before := mgr.Begin()
	w := mgr.Begin()
	if err := tbl.Delete(w, 5); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(w, []value.Value{value.NewInt(1000), value.NewInt(5), value.NewInt(0), value.NewInt(0)}); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Commit(w); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Merge(); err != nil {
		t.Fatal(err)
	}
	q := Query{Predicates: []Predicate{{Column: 1, Op: Eq, Value: value.NewInt(5)}}}
	ids := func(tx *mvcc.Tx) []int64 {
		t.Helper()
		res, err := e.Run(q, tx)
		if err != nil {
			t.Fatal(err)
		}
		var out []int64
		for _, id := range res.IDs {
			v, err := tbl.GetValue(id, 0)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, v.Int())
		}
		slices.Sort(out)
		return out
	}
	if got := ids(before); len(got) != 10 || got[0] != 5 || got[9] != 95 {
		t.Errorf("transaction begun before the delete reads %v, want 5, 15, ..., 95", got)
	}
	if got := ids(nil); len(got) != 10 || got[0] != 15 || got[9] != 1000 {
		t.Errorf("query outside a transaction reads %v, want 15, ..., 95, 1000", got)
	}
}
