package persist

import (
	"context"
	"io"
	"slices"
	"strings"
	"testing"

	"tierdb/internal/mvcc"
	"tierdb/internal/schema"
	"tierdb/internal/table"
	"tierdb/internal/value"
	"tierdb/internal/wal"
)

var recoverFields = []schema.Field{
	{Name: "id", Type: value.Int64},
	{Name: "tag", Type: value.String, Width: 8},
}

func recoverRow(id int64) []value.Value {
	return []value.Value{value.NewInt(id), value.NewString("t")}
}

// logCommit appends one insert of row id into tbl at ts.
func logCommit(t *testing.T, l *wal.Log, ts mvcc.Timestamp, tbl string, id int64) {
	t.Helper()
	ops := []mvcc.RedoOp{{Table: tbl, Row: recoverRow(id)}}
	if _, err := l.AppendCommit(context.Background(), func() mvcc.Timestamp { return ts }, ops); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverSnapshotAndLogTail recovers a table from its checkpoint
// snapshot at timestamp 5 plus a log that re-creates it, repeats commits
// the snapshot covers, adds one it does not and builds a single and a
// composite index; and a second table the log alone creates.
func TestRecoverSnapshotAndLogTail(t *testing.T) {
	fs := wal.NewMemFS()
	mgr := mvcc.NewManager()
	mgr.AdvanceTo(5)
	snap, err := table.New("t", schema.MustNew(recoverFields), table.Options{Manager: mgr})
	if err != nil {
		t.Fatal(err)
	}
	if err := snap.BulkAppend([][]value.Value{recoverRow(1), recoverRow(2), recoverRow(3)}); err != nil {
		t.Fatal(err)
	}
	if err := wal.WriteFile(fs, "wal", "t"+wal.SnapSuffix, func(w io.Writer) error { return SaveAt(w, snap, 5) }); err != nil {
		t.Fatal(err)
	}

	l, err := wal.Open(wal.Options{FS: fs, Dir: "wal", Policy: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(l.AppendCreateTable("t", recoverFields)) // loaded from the snapshot already: a no-op
	logCommit(t, l, 4, "t", 3)                    // at or below the snapshot: skipped
	logCommit(t, l, 5, "t", 3)
	logCommit(t, l, 6, "t", 4)
	must(l.AppendIndex("t", []int{0}))
	must(l.AppendIndex("t", []int{0, 1}))
	must(l.AppendCreateTable("u", recoverFields))
	logCommit(t, l, 7, "u", 9)
	must(l.Close())

	opts := table.Options{Manager: mvcc.NewManager()}
	tables, stats, err := Recover(fs, "wal", opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("recovered %d tables, want t and u", len(tables))
	}
	got := tables["t"]
	if n := got.VisibleCount(); n != 4 {
		t.Errorf("t holds %d rows, want the snapshot's 3 plus the commit at 6", n)
	}
	if got.Index(0) == nil {
		t.Error("single-column index record not replayed")
	}
	if !slices.ContainsFunc(got.CompositeIndexes(), func(cols []int) bool { return slices.Equal(cols, []int{0, 1}) }) {
		t.Errorf("composite index record not replayed: %v", got.CompositeIndexes())
	}
	if n := tables["u"].VisibleCount(); n != 1 {
		t.Errorf("u holds %d rows, want 1", n)
	}
	if stats.Records != 8 || stats.MaxTs != 7 {
		t.Errorf("stats = %+v, want 8 records up to ts 7", stats)
	}
	if last := opts.Manager.LastCommit(); last != 7 {
		t.Errorf("manager at %d after recovery, want 7", last)
	}
}

// TestRecoverUnknownTable: a commit for a table that neither a snapshot
// nor a create-table record holds fails recovery, naming the table.
func TestRecoverUnknownTable(t *testing.T) {
	fs := wal.NewMemFS()
	l, err := wal.Open(wal.Options{FS: fs, Dir: "wal", Policy: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	logCommit(t, l, 1, "ghost", 1)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, _, err = Recover(fs, "wal", table.Options{Manager: mvcc.NewManager()})
	if err == nil || !strings.Contains(err.Error(), `unknown table "ghost"`) {
		t.Fatalf("Recover = %v, want an error naming table ghost", err)
	}
}
