package table

import (
	"fmt"
	"slices"

	"tierdb/internal/column"
	"tierdb/internal/delta"
	"tierdb/internal/dict"
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
// buffer m was built from, one row at a time (rowIndex).
func (m *main) addIndexesRowPath(from *main, rows [][]value.Value) error {
	keys := make([]value.Value, len(rows))
	for col := range from.indexes {
		for r, row := range rows {
			keys[r] = row[col]
		}
		idx, err := rowIndex(m.schema.Field(col).Type, keys)
		if err != nil {
			return err
		}
		m.indexes[col] = idx
	}
	for name, ci := range from.composites {
		key := make([]value.Value, len(ci.cols))
		for r, row := range rows {
			for i, c := range ci.cols {
				key[i] = row[c]
			}
			enc, err := keyenc.EncodeString(key)
			if err != nil {
				return err
			}
			keys[r] = value.NewString(enc)
		}
		idx, err := rowIndex(value.String, keys)
		if err != nil {
			return err
		}
		m.composites[name] = compositeIndex{cols: ci.cols, index: idx}
	}
	return nil
}

// rowIndex indexes keys, row r's at r, by brute force: a map from each
// distinct key — keyenc-encoded, so that the values value.Compare calls
// equal share an entry — to its rows in the order they come, then the
// entries sorted by key and numbered as a dictionary's codes.
func rowIndex(typ value.Type, keys []value.Value) (*dict.Index, error) {
	type entry struct {
		key  value.Value
		rows []int
	}
	byKey := map[string]*entry{}
	var entries []*entry
	for r, k := range keys {
		enc, err := keyenc.EncodeString([]value.Value{k})
		if err != nil {
			return nil, err
		}
		e := byKey[enc]
		if e == nil {
			e = &entry{key: k}
			byKey[enc] = e
			entries = append(entries, e)
		}
		e.rows = append(e.rows, r)
	}
	slices.SortFunc(entries, func(a, b *entry) int { return a.key.Compare(b.key) })
	vals, codes := dict.Values{Type: typ}, make([]uint32, len(keys))
	for c, e := range entries {
		vals.Append(e.key)
		for _, r := range e.rows {
			codes[r] = uint32(c)
		}
	}
	d, err := dict.FromSorted(vals)
	if err != nil {
		return nil, err
	}
	return dict.NewIndex(d, codes), nil
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
		indexes:    make(map[int]*dict.Index),
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
		next.versions.AppendCommittedN(1, snapshot)
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
