package table

import (
	"fmt"

	"tierdb/internal/bptree"
	"tierdb/internal/column"
	"tierdb/internal/delta"
	"tierdb/internal/histogram"
	"tierdb/internal/keyenc"
	"tierdb/internal/mvcc"
	"tierdb/internal/schema"
	"tierdb/internal/sscg"
	"tierdb/internal/value"
)

// The row path: the reference the columnar merge is held to. It is the
// merge as the engine first ran it — rebuild every row as a tuple, then
// transpose, sort, encode and index — kept only for the tests that
// compare against it (TestOnlineMergeEquivalenceProperty through
// MergeOffline, TestColumnarMainMatchesRowPath through buildMainRows).

// addIndexesRowPath builds on m every index from has, from the row
// buffer m was built from, one tree Insert per row.
func (m *main) addIndexesRowPath(from *main, rows [][]value.Value) error {
	for col := range from.indexes {
		tree := bptree.New(m.schema.Field(col).Type)
		for r, row := range rows {
			tree.Insert(row[col], uint32(r))
		}
		m.indexes[col] = tree
	}
	for name, ci := range from.composites {
		tree := bptree.New(value.String)
		key := make([]value.Value, len(ci.cols))
		for r, row := range rows {
			for i, c := range ci.cols {
				key[i] = row[c]
			}
			enc, err := keyenc.EncodeString(key)
			if err != nil {
				return err
			}
			tree.Insert(value.NewString(enc), uint32(r))
		}
		m.composites[name] = compositeIndex{cols: ci.cols, tree: tree}
	}
	return nil
}

// buildMainRows builds the main partition holding rows under layout:
// MRCs, the SSCG, column statistics, an empty version store for the
// caller to fill and no indexes yet, all from one row-major
// transposition of rows.
func (t *Table) buildMainRows(layout []bool, rows [][]value.Value) (*main, error) {
	nCols := t.schema.Len()
	colVals := make([][]value.Value, nCols)
	for c := range colVals {
		colVals[c] = make([]value.Value, len(rows))
	}
	for r, row := range rows {
		for c, v := range row {
			colVals[c][r] = v
		}
	}

	m := &main{
		name:       t.name,
		schema:     t.schema,
		rows:       len(rows),
		layout:     append([]bool(nil), layout...),
		mrcs:       make([]*column.MRC, nCols),
		groupIdx:   make([]int, nCols),
		versions:   mvcc.NewVersions(),
		indexes:    make(map[int]*bptree.Tree),
		composites: make(map[string]compositeIndex),
		hists:      make([]*histogram.Histogram, nCols),
	}
	for col := 0; col < nCols; col++ {
		m.groupIdx[col] = -1
		if len(rows) == 0 {
			continue
		}
		h, err := histogram.Build(t.schema.Field(col).Type, colVals[col], HistogramBuckets)
		if err != nil {
			return nil, fmt.Errorf("table %s: build histogram for %q: %w", t.name, t.schema.Field(col).Name, err)
		}
		m.hists[col] = h
	}

	var groupFields []schema.Field
	var groupCols []int
	for col := 0; col < nCols; col++ {
		f := t.schema.Field(col)
		if layout[col] {
			mrc, err := column.Build(f.Name, f.Type, colVals[col])
			if err != nil {
				return nil, fmt.Errorf("table %s: merge build MRC %q: %w", t.name, f.Name, err)
			}
			m.mrcs[col] = mrc
		} else {
			m.groupIdx[col] = len(groupFields)
			groupFields = append(groupFields, f)
			groupCols = append(groupCols, col)
		}
	}
	if len(groupFields) > 0 {
		groupRows := make([][]value.Value, len(rows))
		for r := range rows {
			gr := make([]value.Value, len(groupCols))
			for gi, col := range groupCols {
				gr[gi] = rows[r][col]
			}
			groupRows[r] = gr
		}
		var err error
		m.group, err = sscg.Build(groupFields, groupRows, t.store, t.cache)
		if err != nil {
			return nil, fmt.Errorf("table %s: merge build SSCG: %w", t.name, err)
		}
	}
	m.epoch = newEpoch(m.group)
	return m, nil
}

// MergeOffline is the blocking reference merge: it folds the delta
// under an exclusive lock held for the entire rebuild, through the row
// path. The equivalence property tests replay committed histories
// through it and compare against online-merged tables. It refuses to run
// while an online merge is in flight.
func (t *Table) MergeOffline() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.merging || t.frozen != nil {
		return ErrMergeInProgress
	}

	old := t.main
	snapshot := t.mgr.LastCommit()
	var rows [][]value.Value
	for _, row := range old.versions.VisibleIn(0, old.rows, snapshot, 0, nil) {
		tuple, err := old.tuple(int(row))
		if err != nil {
			return fmt.Errorf("table %s: merge read main row %d: %w", t.name, row, err)
		}
		rows = append(rows, tuple)
	}
	for _, pos := range t.delta.VisibleRows(snapshot, 0) {
		tuple, err := t.delta.GetRow(int(pos))
		if err != nil {
			return fmt.Errorf("table %s: merge read delta row %d: %w", t.name, pos, err)
		}
		rows = append(rows, tuple)
	}

	next, err := t.buildMainRows(old.layout, rows)
	if err != nil {
		return err
	}
	// Fresh MVCC state: all merged rows are committed & live.
	for range rows {
		next.versions.AppendCommitted(snapshot)
	}
	if err := next.addIndexesRowPath(old, rows); err != nil {
		next.epoch.release()
		return err
	}

	t.main = next
	t.delta = delta.New(t.schema)
	t.delta.Observe(t.registry) // fresh partition, fresh handles
	t.cMerges.Inc()
	t.gActiveRows.Set(0)
	old.epoch.release()
	return nil
}
