package table

import (
	"fmt"

	"tierdb/internal/bptree"
	"tierdb/internal/column"
	"tierdb/internal/histogram"
	"tierdb/internal/keyenc"
	"tierdb/internal/mvcc"
	"tierdb/internal/schema"
	"tierdb/internal/sscg"
	"tierdb/internal/value"
)

// main is one main partition (paper Section II): the read-optimised
// rows as MRCs plus at most one SSCG, with the statistics and indexes
// derived from them. It is built off to the side (buildMain, addIndex)
// and immutable once a Table points at it: no field is reassigned and
// no container grows, so whoever holds the pointer — the table, a View,
// a running merge — reads it without a lock. The one thing that changes
// behind the pointer is the MVCC state inside versions, which has its
// own synchronisation. A structural change (merge, new layout, new
// index) builds the next main and installs it by assigning Table.main.
type main struct {
	name   string // table name, for error messages
	schema *schema.Schema

	rows       int
	layout     []bool // layout[i]: column i is an MRC
	mrcs       []*column.MRC
	group      *sscg.Group // nil when every column is an MRC
	groupIdx   []int       // schema column -> field index within group, -1 if MRC
	versions   *mvcc.Versions
	indexes    map[int]*bptree.Tree      // single-column indexes, always DRAM-resident
	composites map[string]compositeIndex // multi-column indexes by canonical column list
	distinct   []int                     // per-column distinct counts
	hists      []*histogram.Histogram    // per-column equi-depth histograms (nil when empty)
	epoch      *epoch                    // reclamation epoch owning group's pages
}

// compositeIndex bundles the indexed columns with their tree.
type compositeIndex struct {
	cols []int
	tree *bptree.Tree
}

// tuple reconstructs a full row: MRC attributes decode from their
// dictionaries (two dependent DRAM accesses each); SSCG attributes
// arrive with a single page access for the whole group.
func (m *main) tuple(row int) ([]value.Value, error) {
	out := make([]value.Value, len(m.mrcs))
	if m.group != nil {
		groupRow, err := m.group.ReadRow(row)
		if err != nil {
			return nil, err
		}
		for col, gi := range m.groupIdx {
			if gi >= 0 {
				out[col] = groupRow[gi]
			}
		}
	}
	for col, mrc := range m.mrcs {
		if mrc != nil {
			v, err := mrc.Get(row)
			if err != nil {
				return nil, err
			}
			out[col] = v
		}
	}
	return out, nil
}

// value reads one cell; col must be a valid schema column.
func (m *main) value(row, col int) (value.Value, error) {
	if mrc := m.mrcs[col]; mrc != nil {
		return mrc.Get(row)
	}
	return m.group.ReadField(row, m.groupIdx[col])
}

// addIndex builds a DRAM-resident B+-tree over cols and registers it:
// one column indexes its values, several index the order-preserving
// byte encoding of the column tuple (cf. Hyrise's composite keys, paper
// Section IV). cell supplies the cells — the merge's row buffer, or
// value of the main a new index is created on. It writes m's index
// maps, so m must not be installed yet.
func (m *main) addIndex(cols []int, cell func(row, col int) (value.Value, error)) error {
	typ := value.String
	if len(cols) == 1 {
		typ = m.schema.Field(cols[0]).Type
	}
	tree := bptree.New(typ)
	key := make([]value.Value, len(cols))
	for row := 0; row < m.rows; row++ {
		for i, c := range cols {
			v, err := cell(row, c)
			if err != nil {
				return fmt.Errorf("table %s: build index on columns %v: %w", m.name, cols, err)
			}
			key[i] = v
		}
		k := key[0]
		if len(cols) > 1 {
			enc, err := keyenc.EncodeString(key)
			if err != nil {
				return fmt.Errorf("table %s: encode composite key: %w", m.name, err)
			}
			k = value.NewString(enc)
		}
		tree.Insert(k, uint32(row))
	}
	if len(cols) == 1 {
		m.indexes[cols[0]] = tree
	} else {
		m.composites[compositeKeyName(cols)] = compositeIndex{cols: append([]int(nil), cols...), tree: tree}
	}
	return nil
}

// addIndexesOf builds on m every index that from has and m lacks.
func (m *main) addIndexesOf(from *main, cell func(row, col int) (value.Value, error)) error {
	for col := range from.indexes {
		if _, ok := m.indexes[col]; !ok {
			if err := m.addIndex([]int{col}, cell); err != nil {
				return err
			}
		}
	}
	for name, ci := range from.composites {
		if _, ok := m.composites[name]; !ok {
			if err := m.addIndex(ci.cols, cell); err != nil {
				return err
			}
		}
	}
	return nil
}

// histogramBuckets is the equi-depth histogram resolution.
const histogramBuckets = 64

// buildMain builds the main partition holding rows under layout: MRCs,
// the SSCG, column statistics, an empty version store for the caller to
// fill and no indexes yet. Statistics come from a single row-major
// transposition: the per-column value slices feed the equi-depth
// histograms — whose sorted build pass yields the exact distinct count
// for free — and are then reused as MRC build input (see
// BenchmarkColumnStats). A main that ends up not installed is abandoned
// with epoch.release, which frees the SSCG pages written here.
func (t *Table) buildMain(layout []bool, rows [][]value.Value) (*main, error) {
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
		distinct:   make([]int, nCols),
		hists:      make([]*histogram.Histogram, nCols),
	}
	for col := 0; col < nCols; col++ {
		m.groupIdx[col] = -1
		if len(rows) == 0 {
			continue
		}
		h, err := histogram.Build(t.schema.Field(col).Type, colVals[col], histogramBuckets)
		if err != nil {
			return nil, fmt.Errorf("table %s: build histogram for %q: %w", t.name, t.schema.Field(col).Name, err)
		}
		m.hists[col] = h
		m.distinct[col] = h.DistinctCount()
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
