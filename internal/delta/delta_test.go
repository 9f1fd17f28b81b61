package delta

import (
	"sync"
	"testing"

	"tierdb/internal/mvcc"
	"tierdb/internal/schema"
	"tierdb/internal/value"
)

func testSchema() *schema.Schema {
	return schema.MustNew([]schema.Field{
		{Name: "id", Type: value.Int64},
		{Name: "name", Type: value.String, Width: 16},
	})
}

func row(id int64, name string) []value.Value {
	return []value.Value{value.NewInt(id), value.NewString(name)}
}

func TestInsertCommitVisibility(t *testing.T) {
	m := mvcc.NewManager()
	p := New(testSchema())

	tx := m.Begin()
	pos, err := p.Insert(tx, row(1, "alpha"))
	if err != nil {
		t.Fatal(err)
	}
	// Visible to self, invisible to others.
	got, err := p.ScanEqual(0, value.NewInt(1), tx.Snapshot(), tx.ID(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != uint32(pos) {
		t.Errorf("self scan = %v", got)
	}
	other := m.Begin()
	got, _ = p.ScanEqual(0, value.NewInt(1), other.Snapshot(), other.ID(), nil)
	if len(got) != 0 {
		t.Errorf("other tx sees uncommitted row: %v", got)
	}
	if _, err := m.Commit(tx); err != nil {
		t.Fatal(err)
	}
	late := m.Begin()
	got, _ = p.ScanEqual(0, value.NewInt(1), late.Snapshot(), late.ID(), nil)
	if len(got) != 1 {
		t.Errorf("committed row invisible: %v", got)
	}
}

func TestAbortHidesRow(t *testing.T) {
	m := mvcc.NewManager()
	p := New(testSchema())
	tx := m.Begin()
	if _, err := p.Insert(tx, row(7, "gone")); err != nil {
		t.Fatal(err)
	}
	if err := m.Abort(tx); err != nil {
		t.Fatal(err)
	}
	late := m.Begin()
	got, _ := p.ScanEqual(0, value.NewInt(7), late.Snapshot(), late.ID(), nil)
	if len(got) != 0 {
		t.Errorf("aborted row visible: %v", got)
	}
	if p.Rows() != 1 {
		t.Errorf("physical rows = %d, want 1 (insert-only)", p.Rows())
	}
}

func TestDelete(t *testing.T) {
	m := mvcc.NewManager()
	p := New(testSchema())
	pos, err := p.Append(row(5, "victim"), m.LastCommit())
	if err != nil {
		t.Fatal(err)
	}
	tx := m.Begin()
	if err := p.Delete(tx, pos); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Commit(tx); err != nil {
		t.Fatal(err)
	}
	late := m.Begin()
	got, _ := p.ScanEqual(0, value.NewInt(5), late.Snapshot(), late.ID(), nil)
	if len(got) != 0 {
		t.Errorf("deleted row visible: %v", got)
	}
	if n := len(p.VisibleRows(late.Snapshot(), late.ID())); n != 0 {
		t.Errorf("VisibleRows = %d, want 0", n)
	}
}

func TestScanRange(t *testing.T) {
	m := mvcc.NewManager()
	p := New(testSchema())
	for i := int64(0); i < 20; i++ {
		if _, err := p.Append(row(i, "x"), m.LastCommit()); err != nil {
			t.Fatal(err)
		}
	}
	late := m.Begin()
	got, err := p.ScanRange(0, value.NewInt(5), value.NewInt(9), late.Snapshot(), late.ID(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Errorf("ScanRange hit %d rows, want 5", len(got))
	}
}

func TestUnsortedDictionarySharesCodes(t *testing.T) {
	m := mvcc.NewManager()
	p := New(testSchema())
	p.Append(row(1, "dup"), m.LastCommit())
	p.Append(row(2, "dup"), m.LastCommit())
	p.Append(row(3, "other"), m.LastCommit())
	if got := p.DistinctCount(1); got != 2 {
		t.Errorf("DistinctCount(name) = %d, want 2", got)
	}
	if got := p.DistinctCount(0); got != 3 {
		t.Errorf("DistinctCount(id) = %d, want 3", got)
	}
	v, err := p.Get(1, 1)
	if err != nil || v.Str() != "dup" {
		t.Errorf("Get = %v, %v", v, err)
	}
	full, err := p.GetRow(2)
	if err != nil || full[0].Int() != 3 || full[1].Str() != "other" {
		t.Errorf("GetRow = %v, %v", full, err)
	}
}

func TestGetErrors(t *testing.T) {
	p := New(testSchema())
	if _, err := p.Get(0, 0); err == nil {
		t.Error("Get on empty delta accepted")
	}
	if _, err := p.Get(0, 9); err == nil {
		t.Error("out-of-range column accepted")
	}
	if _, err := p.GetRow(5); err == nil {
		t.Error("GetRow out of range accepted")
	}
	if _, err := p.ScanEqual(9, value.NewInt(0), 1, 0, nil); err == nil {
		t.Error("ScanEqual bad column accepted")
	}
	if _, err := p.ScanRange(9, value.NewInt(0), value.NewInt(1), 1, 0, nil); err == nil {
		t.Error("ScanRange bad column accepted")
	}
}

func TestInsertRejectsBadRows(t *testing.T) {
	m := mvcc.NewManager()
	p := New(testSchema())
	tx := m.Begin()
	if _, err := p.Insert(tx, []value.Value{value.NewInt(1)}); err == nil {
		t.Error("short row accepted")
	}
	if _, err := p.Append([]value.Value{value.NewInt(1)}, 1); err == nil {
		t.Error("short append accepted")
	}
}

func TestBytesGrowsWithData(t *testing.T) {
	m := mvcc.NewManager()
	p := New(testSchema())
	empty := p.Bytes()
	for i := int64(0); i < 100; i++ {
		p.Append(row(i, "payload"), m.LastCommit())
	}
	if p.Bytes() <= empty {
		t.Error("Bytes did not grow")
	}
}

func TestConcurrentInserts(t *testing.T) {
	m := mvcc.NewManager()
	p := New(testSchema())
	var wg sync.WaitGroup
	const workers = 8
	const each = 100
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				tx := m.Begin()
				if _, err := p.Insert(tx, row(int64(w*each+i), "w")); err != nil {
					t.Error(err)
					return
				}
				if _, err := m.Commit(tx); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	late := m.Begin()
	if n := len(p.VisibleRows(late.Snapshot(), late.ID())); n != workers*each {
		t.Errorf("visible rows = %d, want %d", n, workers*each)
	}
	if p.Rows() != workers*each {
		t.Errorf("Rows = %d, want %d", p.Rows(), workers*each)
	}
	if p.DistinctCount(9) != 0 {
		t.Error("DistinctCount out of range should be 0")
	}
}
