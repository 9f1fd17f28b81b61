package table

import (
	"errors"
	"fmt"
	"testing"

	"tierdb/internal/amm"
	"tierdb/internal/storage"
	"tierdb/internal/value"
)

// faultyTable builds a tiered table over a fault-injecting store.
func faultyTable(t *testing.T, cache bool) (*Table, *storage.FaultStore) {
	t.Helper()
	fs := storage.NewFaultStore(storage.NewMemStore())
	opts := Options{Store: fs}
	if cache {
		c, err := amm.New(8, fs)
		if err != nil {
			t.Fatal(err)
		}
		opts.Cache = c
	}
	tbl, err := New("faulty", testSchema(), opts)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]value.Value, 500)
	for i := range rows {
		rows[i] = row(int64(i), int64(i%10), fmt.Sprintf("n%d", i%4))
	}
	if err := tbl.BulkAppend(rows); err != nil {
		t.Fatal(err)
	}
	if err := tbl.ApplyLayout([]bool{true, false, false}); err != nil {
		t.Fatal(err)
	}
	return tbl, fs
}

func TestReadFaultSurfacesFromGetTuple(t *testing.T) {
	tbl, fs := faultyTable(t, false)
	fs.FailReadAfter(1, false)
	if _, err := getTuple(tbl, 7); !errors.Is(err, storage.ErrInjected) {
		t.Errorf("GetTuple under fault: %v, want ErrInjected", err)
	}
	// Transient fault: the next access succeeds and data is intact.
	got, err := getTuple(tbl, 7)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Int() != 7 || got[1].Int() != 7 {
		t.Errorf("data corrupted after fault: %v", got)
	}
	if fs.ReadsFailed() != 1 {
		t.Errorf("ReadsFailed = %d", fs.ReadsFailed())
	}
}

func TestReadFaultThroughCacheDoesNotPoison(t *testing.T) {
	tbl, fs := faultyTable(t, true)
	fs.FailReadAfter(1, false)
	if _, err := getTuple(tbl, 3); !errors.Is(err, storage.ErrInjected) {
		t.Errorf("cached GetTuple under fault: %v", err)
	}
	// The failed fault-in must not leave a poisoned cache frame; the
	// retry faults the page in properly.
	got, err := getTuple(tbl, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got[2].Str() != "n3" {
		t.Errorf("cache poisoned: %v", got)
	}
}

func TestWriteFaultFailsMergeCleanly(t *testing.T) {
	tbl, fs := faultyTable(t, false)
	mgr := tbl.Manager()
	tx := mgr.Begin()
	if err := tbl.Insert(tx, row(9999, 1, "n1")); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Commit(tx); err != nil {
		t.Fatal(err)
	}
	fs.FailWriteAfter(1, false)
	if err := tbl.Merge(); !errors.Is(err, storage.ErrInjected) {
		t.Errorf("merge under write fault: %v, want ErrInjected", err)
	}
	// The table remains queryable: either the old state (merge failed
	// atomically before install) is visible, including the delta row.
	if got := tbl.VisibleCount(); got != 501 {
		t.Errorf("visible rows after failed merge = %d, want 501", got)
	}
	// A later merge succeeds.
	if err := tbl.Merge(); err != nil {
		t.Fatal(err)
	}
	if got := tbl.VisibleCount(); got != 501 {
		t.Errorf("visible rows after recovery merge = %d, want 501", got)
	}
}
