package table

import (
	"fmt"

	"tierdb/internal/column"
	"tierdb/internal/delta"
	"tierdb/internal/histogram"
	"tierdb/internal/mvcc"
	"tierdb/internal/schema"
	"tierdb/internal/sscg"
	"tierdb/internal/value"
)

// Image is a main partition as a checkpoint stores it (package
// persist): its arrays, which Restore adopts as they are.
type Image struct {
	Layout []bool        // Layout[i]: column i is an MRC
	Rows   int           // rows, hidden ones included
	MRCs   []*column.MRC // per column, nil for one in the SSCG
	// Pages fills the SSCG's pages, one per call, in order (sscg.Restore).
	Pages  func(page []byte) error
	Hists  []*histogram.Histogram // per column, all nil when Rows is 0
	Hidden []int                  // the rows not visible at the snapshot, ascending
}

// Restore creates a table whose main partition is img, its rows visible
// from ts on except the hidden ones, which end at ts: the next merge
// purges them and ReplayDelete passes them over. Nothing is decoded or
// re-encoded; CreateIndex builds the indexes from the codes afterwards.
func Restore(name string, s *schema.Schema, opts Options, ts mvcc.Timestamp, img Image) (*Table, error) {
	t, err := New(name, s, opts)
	if err != nil {
		return nil, err
	}
	m, groupFields := t.newMain(img.Layout, img.Rows, mvcc.NewVersionsAt(img.Rows, ts, nil))
	m.mrcs, m.hists = img.MRCs, img.Hists
	ends := make([]mvcc.Timestamp, len(img.Hidden))
	for i := range ends {
		ends[i] = ts
	}
	m.versions.SetEnds(img.Hidden, ends)
	if len(groupFields) > 0 {
		if m.group, err = sscg.Restore(groupFields, img.Rows, img.Pages, t.store, t.cache); err != nil {
			return nil, fmt.Errorf("table %s: restore SSCG: %w", name, err)
		}
	}
	m.epoch = newEpoch(m.group)
	t.main = m
	return t, nil
}

// BulkAppendAt loads rows outside any transaction, visible from the
// explicit commit timestamp ts on, as one batch: a row that does not fit
// the schema fails it whole, and nothing is appended. The durable
// bulk-load path allocates ts via mvcc.Manager.BulkCommitCtx (which logs
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
	row, err := t.main.find(tuple)
	if err != nil {
		return fmt.Errorf("table %s: replay delete: %w", t.name, err)
	}
	if row >= 0 {
		t.main.versions.SetEnds([]int{row}, []mvcc.Timestamp{ts})
		return nil
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

// find returns the first committed-live row of m whose content is
// tuple, or -1. The tuple is encoded once against each MRC's dictionary
// — a value one lacks is in no row — and the codes are compared first:
// a row is read, with one SSCG access, only when its codes all match.
func (m *main) find(tuple []value.Value) (int, error) {
	if len(tuple) != len(m.mrcs) {
		return -1, nil
	}
	codes := make([]uint32, len(m.mrcs))
	for col, mrc := range m.mrcs {
		ok := true
		if mrc != nil {
			codes[col], ok = mrc.Dictionary().Encode(tuple[col])
		}
		if !ok {
			return -1, nil
		}
	}
rows:
	for row := 0; row < m.rows; row++ {
		for col, mrc := range m.mrcs {
			if mrc != nil && mrc.Code(row) != codes[col] {
				continue rows
			}
		}
		if !liveCommitted(m.versions.State(row)) {
			continue
		}
		got, err := m.tuple(row)
		if err != nil {
			return -1, err
		}
		if rowsEqual(got, tuple) {
			return row, nil
		}
	}
	return -1, nil
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
