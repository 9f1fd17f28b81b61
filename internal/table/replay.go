package table

import (
	"fmt"

	"tierdb/internal/delta"
	"tierdb/internal/mvcc"
	"tierdb/internal/value"
)

// BulkAppendAt loads rows outside any transaction, visible from the
// explicit commit timestamp ts on, as one batch: a row that does not fit
// the schema fails it whole, and nothing is appended. The durable
// bulk-load path allocates ts via mvcc.Manager.BulkCommit (which logs
// the rows first); recovery uses it to restore checkpoint snapshots at
// their snapshot timestamp and to replay each logged commit's inserts.
func (t *Table) BulkAppendAt(rows [][]value.Value, ts mvcc.Timestamp) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if _, err := t.delta.AppendRows(rows, ts); err != nil {
		return fmt.Errorf("table %s: bulk append: %w", t.name, err)
	}
	return nil
}

// ReplayCommit re-applies, during recovery, the ops of one logged commit
// that name this table, at the commit's timestamp: its inserts as one
// batch into the active delta, then its deletes in log order. A delete
// stamps the first live row of its content (ReplayDelete), and the
// commit's inserts land after every older row, so applying them first
// leaves each delete the row it stamped when the commit was made.
func (t *Table) ReplayCommit(ts mvcc.Timestamp, ops []mvcc.RedoOp) error {
	var rows [][]value.Value
	for _, op := range ops {
		if op.Table == t.name && !op.Delete {
			rows = append(rows, op.Row)
		}
	}
	if err := t.BulkAppendAt(rows, ts); err != nil {
		return err
	}
	for _, op := range ops {
		if op.Table == t.name && op.Delete {
			if err := t.ReplayDelete(op.Row, ts); err != nil {
				return err
			}
		}
	}
	return nil
}

// ReplayDelete re-applies a logged delete during recovery. Deletes are
// logged by row content, not position — row ids are positional and do
// not survive a merge — so replay stamps the delete timestamp onto the
// first committed-live row with identical content. With duplicate rows
// any one of them is the multiset-correct choice. Recovery is
// single-threaded, so the scan-then-stamp is not racy.
func (t *Table) ReplayDelete(tuple []value.Value, ts mvcc.Timestamp) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for row := 0; row < t.main.rows; row++ {
		st := t.main.versions.State(row)
		if !liveCommitted(st) {
			continue
		}
		got, err := t.main.tuple(row)
		if err != nil {
			return fmt.Errorf("table %s: replay delete: %w", t.name, err)
		}
		if rowsEqual(got, tuple) {
			t.main.versions.SetEnds([]int{row}, []mvcc.Timestamp{ts})
			return nil
		}
	}
	for _, p := range []*delta.Partition{t.frozen, t.delta} {
		if p == nil {
			continue
		}
		vers := p.Versions()
		for pos := 0; pos < p.Rows(); pos++ {
			st := vers.State(pos)
			if !liveCommitted(st) {
				continue
			}
			got, err := p.GetRow(pos)
			if err != nil {
				return fmt.Errorf("table %s: replay delete: %w", t.name, err)
			}
			if rowsEqual(got, tuple) {
				vers.SetEnds([]int{pos}, []mvcc.Timestamp{ts})
				return nil
			}
		}
	}
	return fmt.Errorf("table %s: replay delete: no live row matches %v", t.name, tuple)
}

func liveCommitted(st mvcc.RowState) bool {
	return st.Begin != 0 && st.Begin != mvcc.Infinity && st.End == mvcc.Infinity && !st.Pending
}

func rowsEqual(a, b []value.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Type() != b[i].Type() || !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}
