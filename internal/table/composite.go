package table

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"tierdb/internal/delta"
	"tierdb/internal/keyenc"
	"tierdb/internal/mvcc"
	"tierdb/internal/value"
)

// compositeKeyName canonicalizes a column list for the index registry.
func compositeKeyName(cols []int) string {
	parts := make([]string, len(cols))
	for i, c := range cols {
		parts[i] = fmt.Sprintf("%d", c)
	}
	return strings.Join(parts, ",")
}

// CreateCompositeIndex builds a DRAM-resident multi-column index over
// the main partition (cf. Hyrise's composite keys, paper Section IV).
// Keys are order-preserving byte encodings of the column tuple, indexed
// like a single column: a dictionary of the keys and the rows grouped by
// key code. Like single-column indexes, composite indexes are never
// evicted and are rebuilt by Merge.
func (t *Table) CreateCompositeIndex(cols []int) error {
	if len(cols) < 2 {
		return fmt.Errorf("table %s: composite index needs >= 2 columns, got %d", t.name, len(cols))
	}
	seen := make(map[int]bool, len(cols))
	for _, c := range cols {
		if c < 0 || c >= t.schema.Len() {
			return fmt.Errorf("table %s: composite index column %d out of range", t.name, c)
		}
		if seen[c] {
			return fmt.Errorf("table %s: composite index repeats column %d", t.name, c)
		}
		seen[c] = true
	}
	return t.installIndex(cols)
}

// LookupComposite resolves a composite-key lookup in the View, using the
// composite index over cols (which must have been created): the main
// partition via the composite index, then the frozen (if any) and
// active deltas by probing their first column's postings and verifying
// the remaining columns. Every key value must have its column's type.
func (v *View) LookupComposite(cols []int, key []value.Value, snapshot mvcc.Timestamp, self mvcc.TxID) ([]RowID, error) {
	if len(key) != len(cols) {
		return nil, fmt.Errorf("table %s: composite key has %d values for %d columns", v.main.name, len(key), len(cols))
	}
	idx, ok := v.main.composites[compositeKeyName(cols)]
	if !ok {
		return nil, fmt.Errorf("table %s: no composite index on columns %v", v.main.name, cols)
	}
	for i, c := range cols {
		if f := v.main.schema.Field(c); key[i].Type() != f.Type {
			return nil, fmt.Errorf("table %s: composite key value %d has type %s, column %q holds %s", v.main.name, i, key[i].Type(), f.Name, f.Type)
		}
	}
	enc, err := keyenc.EncodeString(key)
	if err != nil {
		return nil, err
	}
	var out []RowID
	// Eq's slice is the index's own: filter a copy.
	for _, pos := range v.main.versions.FilterVisible(slices.Clone(idx.index.Eq(value.NewString(enc))), snapshot, self) {
		out = append(out, RowID(pos))
	}
	probe := func(d *delta.Partition, base uint64, bound int) error {
		cand, err := d.ScanEqual(cols[0], key[0], snapshot, self, nil)
		if err != nil {
			return err
		}
		for _, pos := range cand {
			if int(pos) >= bound {
				continue // appended after the pin; see View.ActiveRows
			}
			match := true
			for i := 1; i < len(cols); i++ {
				val, err := d.Get(int(pos), cols[i])
				if err != nil {
					return err
				}
				if !val.Equal(key[i]) {
					match = false
					break
				}
			}
			if match {
				out = append(out, base+uint64(pos))
			}
		}
		return nil
	}
	base := uint64(v.main.rows)
	if v.frozen != nil {
		if err := probe(v.frozen, base, v.frozenRows); err != nil {
			return nil, err
		}
		base += uint64(v.frozenRows)
	}
	if err := probe(v.active, base, v.activeRows); err != nil {
		return nil, err
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out, nil
}

// CompositeIndexes lists the column sets with composite indexes.
func (t *Table) CompositeIndexes() [][]int {
	composites := t.peek().main.composites
	out := make([][]int, 0, len(composites))
	for _, idx := range composites {
		out = append(out, append([]int(nil), idx.cols...))
	}
	sort.Slice(out, func(a, b int) bool {
		return compositeKeyName(out[a]) < compositeKeyName(out[b])
	})
	return out
}
