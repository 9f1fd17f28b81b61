package table

import (
	"fmt"
	"strings"

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
	indexes    map[int]*dict.Index       // single-column indexes, always DRAM-resident
	composites map[string]compositeIndex // multi-column indexes by canonical column list
	hists      []*histogram.Histogram    // per-column equi-depth histograms and distinct counts (nil when empty)
	epoch      *epoch                    // reclamation epoch owning group's pages
}

// compositeIndex bundles the indexed columns with their index.
type compositeIndex struct {
	cols  []int
	index *dict.Index
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

// addIndex builds a DRAM-resident group-key index over cols
// (dict.NewIndex) and registers it. One column's index is keyed by its
// dictionary — an MRC's own, or, for an SSCG column, one built from its
// values; several columns' index by a dictionary of the order-preserving
// byte encodings of their tuples (cf. Hyrise's composite keys, paper
// Section IV). column supplies each column — the merge's encoding, or
// column of the main a new index is created on. It writes m's index
// maps, so m must not be installed yet.
func (m *main) addIndex(cols []int, column func(col int) (encoded, error)) error {
	enc := make([]encoded, len(cols))
	for i, c := range cols {
		var err error
		if enc[i], err = column(c); err != nil {
			return fmt.Errorf("table %s: build index on columns %v: %w", m.name, cols, err)
		}
	}
	e, typ := enc[0], m.schema.Field(cols[0]).Type
	if len(cols) > 1 {
		keys, key := make([]value.Value, m.rows), make([]value.Value, len(cols))
		for row := range keys {
			for i := range cols {
				key[i] = enc[i].value(row)
			}
			k, err := keyenc.EncodeString(key)
			if err != nil {
				return fmt.Errorf("table %s: encode composite key: %w", m.name, err)
			}
			keys[row] = value.NewString(k)
		}
		e, typ = encoded{vals: keys}, value.String
	}
	if e.dict == nil {
		var err error
		if e.dict, e.codes, err = dict.Build(typ, e.vals); err != nil {
			return fmt.Errorf("table %s: build index on columns %v: %w", m.name, cols, err)
		}
	}
	idx := dict.NewIndex(e.dict, e.codes)
	if len(cols) == 1 {
		m.indexes[cols[0]] = idx
	} else {
		m.composites[compositeKeyName(cols)] = compositeIndex{cols: append([]int(nil), cols...), index: idx}
	}
	return nil
}

// addIndexesOf builds on m every index that from has and m lacks, from
// the columns column supplies.
func (m *main) addIndexesOf(from *main, column func(col int) (encoded, error)) error {
	for col := range from.indexes {
		if _, ok := m.indexes[col]; !ok {
			if err := m.addIndex([]int{col}, column); err != nil {
				return err
			}
		}
	}
	for name, ci := range from.composites {
		if _, ok := m.composites[name]; !ok {
			if err := m.addIndex(ci.cols, column); err != nil {
				return err
			}
		}
	}
	return nil
}

// column returns column col: an MRC's dictionary and codes, or an SSCG
// column's values decoded from one ordered walk of the group's pages.
func (m *main) column(col int) (encoded, error) {
	if mrc := m.mrcs[col]; mrc != nil {
		codes := make([]uint32, m.rows)
		for i := range codes {
			codes[i] = mrc.Code(i)
		}
		return encoded{dict: mrc.Dictionary(), codes: codes}, nil
	}
	gi, f := m.groupIdx[col], m.schema.Field(col)
	raw := make([]byte, 0, m.rows*f.SlotWidth())
	err := m.group.ReadRows(0, m.rows, func(_ int, slots [][]byte) error {
		raw = append(raw, slots[gi]...)
		return nil
	})
	vals := make([]value.Value, m.rows)
	decodeSlots(f.Type, raw, vals)
	return encoded{vals: vals}, err
}

// HistogramBuckets is the equi-depth histogram resolution: no column
// has more buckets.
const HistogramBuckets = 64

// source is what the next main is built from: the rows of old that
// survive, then the rows of a frozen delta that are folded in, each list
// ascending, with the version store of the resulting rows.
type source struct {
	old      *main            // nil for a new table's empty main
	keep     []uint32         // positions in old
	frozen   *delta.Partition // nil when nothing is folded
	fold     []uint32         // positions in frozen
	versions *mvcc.Versions   // the next main's rows, committed and live
}

// encoded is one column of the next main: each row's value (an old SSCG
// column's), or a dictionary of the distinct values and each row's code
// in it, or both.
type encoded struct {
	vals  []value.Value
	dict  *dict.Dictionary
	codes []uint32
}

func (e encoded) value(row int) value.Value {
	if e.vals != nil {
		return e.vals[row]
	}
	return e.dict.At(int(e.codes[row]))
}

// histogram summarises the column: from its code counts when it has a
// dictionary, else by sorting its values.
func (e encoded) histogram(typ value.Type) (*histogram.Histogram, error) {
	if e.dict == nil {
		return histogram.Build(typ, e.vals, HistogramBuckets)
	}
	counts := make([]int, e.dict.Size())
	for _, c := range e.codes {
		counts[c]++
	}
	return histogram.FromSorted(typ, e.dict.At, counts, HistogramBuckets)
}

// buildMain builds the main partition holding src's rows under layout,
// column by column from what the old main and the frozen delta already
// hold (Krüger et al., "Fast Updates on Read-Optimized Databases Using
// Multi-Core CPUs", PVLDB 2011). A column that was an MRC merges its old
// dictionary with the delta's (dict.Merge), and its codes, counted, give
// the histogram and the distinct count. A column that was in the SSCG
// sorts its values once — by dict.Build when it becomes an MRC or is
// indexed, else by histogram.Build. MRCs pack the codes and
// single-column indexes group the rows by them. The next SSCG is
// written in one pass: old slots are copied byte for byte from one
// ordered walk of the old pages, and only delta rows and columns
// arriving from an MRC are encoded. The values each column carries are
// the ones a row-at-a-time rebuild would see — old SSCG strings as read
// back from their slots, delta strings as inserted — which
// TestColumnarMainMatchesRowPath pins. The result has its version store
// and every index of src.old; a main that ends up not installed is
// abandoned with epoch.release, which frees the SSCG pages written here.
func (t *Table) buildMain(layout []bool, src source) (*main, error) {
	nKeep := len(src.keep)
	m, groupFields := t.newMain(layout, nKeep+len(src.fold), src.versions)
	oldSlots, err := src.oldSlots(len(layout))
	if err != nil {
		return nil, fmt.Errorf("table %s: merge read main rows: %w", t.name, err)
	}
	cols := make([]encoded, len(layout))
	for col := range cols {
		f := t.schema.Field(col)
		needCodes := layout[col] || src.old != nil && src.old.indexes[col] != nil
		if cols[col], err = src.encode(col, f.Type, oldSlots[col], needCodes); err != nil {
			return nil, fmt.Errorf("table %s: merge column %q: %w", t.name, f.Name, err)
		}
		if m.rows > 0 {
			if m.hists[col], err = cols[col].histogram(f.Type); err != nil {
				return nil, fmt.Errorf("table %s: build histogram for %q: %w", t.name, f.Name, err)
			}
		}
		if layout[col] {
			m.mrcs[col] = column.New(f.Name, cols[col].dict, cols[col].dict.Pack(cols[col].codes))
		}
	}
	if len(groupFields) > 0 {
		m.group, err = sscg.BuildFunc(groupFields, m.rows, func(row int, slots [][]byte) error {
			for col, gi := range m.groupIdx {
				if gi < 0 {
					continue
				}
				if old := oldSlots[col]; row < nKeep && old != nil {
					w := len(slots[gi])
					copy(slots[gi], old[row*w:(row+1)*w])
				} else if err := value.EncodeFixed(cols[col].value(row), slots[gi]); err != nil {
					return err
				}
			}
			return nil
		}, t.store, t.cache)
		if err != nil {
			return nil, fmt.Errorf("table %s: merge build SSCG: %w", t.name, err)
		}
	}
	m.epoch = newEpoch(m.group)
	if src.old == nil {
		return m, nil
	}
	if err := m.addIndexesOf(src.old, func(col int) (encoded, error) { return cols[col], nil }); err != nil {
		m.epoch.release()
		return nil, err
	}
	return m, nil
}

// newMain returns a main of rows rows under layout with versions, and
// the fields of its SSCG: each SSCG column numbered in groupIdx, every
// column's MRC and histogram still nil, and no index.
func (t *Table) newMain(layout []bool, rows int, versions *mvcc.Versions) (*main, []schema.Field) {
	m := &main{
		name:       t.name,
		schema:     t.schema,
		rows:       rows,
		layout:     append([]bool(nil), layout...),
		mrcs:       make([]*column.MRC, len(layout)),
		groupIdx:   make([]int, len(layout)),
		versions:   versions,
		indexes:    make(map[int]*dict.Index),
		composites: make(map[string]compositeIndex),
		hists:      make([]*histogram.Histogram, len(layout)),
	}
	var groupFields []schema.Field
	for col := range m.groupIdx {
		m.groupIdx[col] = -1
		if !layout[col] {
			m.groupIdx[col] = len(groupFields)
			groupFields = append(groupFields, t.schema.Field(col))
		}
	}
	return m, groupFields
}

// oldSlots copies, for every column in the old main's SSCG, the slot of
// each surviving row — row i's at i × the slot width — from one ordered
// walk of the old pages. Other columns get nil.
func (src source) oldSlots(nCols int) ([][]byte, error) {
	raw := make([][]byte, nCols)
	old := src.old
	if old == nil || old.group == nil || len(src.keep) == 0 {
		return raw, nil
	}
	for col, gi := range old.groupIdx {
		if gi >= 0 {
			raw[col] = make([]byte, len(src.keep)*old.schema.Field(col).SlotWidth())
		}
	}
	i := 0
	err := old.group.ReadRows(int(src.keep[0]), int(src.keep[len(src.keep)-1])+1, func(row int, slots [][]byte) error {
		if uint32(row) != src.keep[i] {
			return nil // not surviving
		}
		for col, gi := range old.groupIdx {
			if gi >= 0 {
				w := len(slots[gi])
				copy(raw[col][i*w:], slots[gi])
			}
		}
		i++
		return nil
	})
	return raw, err
}

// encode returns column col of the next main. A column that was an MRC
// (every column of a new table's empty main is) merges the old
// dictionary, read through the surviving rows' codes, with the frozen
// delta's. One that was in the SSCG decodes its copied slots, appends
// the folded delta values and, if needCodes, encodes them all.
func (src source) encode(col int, typ value.Type, oldSlots []byte, needCodes bool) (encoded, error) {
	var deltaValues dict.Values
	var deltaCodes []uint32
	if src.frozen != nil {
		deltaValues, deltaCodes = src.frozen.Column(col)
	}
	nKeep := len(src.keep)
	if src.old == nil || src.old.mrcs[col] != nil {
		var old *dict.Dictionary
		keepCodes := make([]uint32, nKeep)
		if src.old != nil {
			mrc := src.old.mrcs[col]
			old = mrc.Dictionary()
			for i, pos := range src.keep {
				keepCodes[i] = mrc.Code(int(pos))
			}
		}
		foldCodes := make([]uint32, len(src.fold))
		for i, pos := range src.fold {
			foldCodes[i] = deltaCodes[pos]
		}
		d, codes := dict.Merge(typ, old, keepCodes, deltaValues, foldCodes)
		return encoded{dict: d, codes: codes}, nil
	}
	vals := make([]value.Value, nKeep+len(src.fold))
	decodeSlots(typ, oldSlots, vals[:nKeep])
	for i, pos := range src.fold {
		vals[nKeep+i] = deltaValues.At(int(deltaCodes[pos]))
	}
	if !needCodes {
		return encoded{vals: vals}, nil
	}
	d, codes, err := dict.Build(typ, vals)
	return encoded{vals, d, codes}, err
}

// decodeSlots decodes len(out) equal fixed-width slots laid end to end in
// raw, the way an SSCG row read decodes them. The strings share one copy
// of raw rather than costing an allocation each; a number's slot is
// always 8 bytes, so decoding one cannot fail.
func decodeSlots(typ value.Type, raw []byte, out []value.Value) {
	all := ""
	if typ == value.String {
		all = string(raw)
	}
	for i := range out {
		w := len(raw) / len(out)
		if typ == value.String {
			out[i] = value.NewString(strings.TrimRight(all[i*w:(i+1)*w], "\x00"))
		} else {
			out[i], _ = value.DecodeFixed(typ, raw[i*w:(i+1)*w])
		}
	}
}
