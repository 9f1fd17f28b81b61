package exec

import (
	"fmt"

	"tierdb/internal/table"
	"tierdb/internal/value"
)

// Reconstruct materializes a full tuple, charging the modeled DRAM costs
// of dictionary decoding: each MRC attribute needs two dependent random
// accesses (value vector, then dictionary — the paper's "two L3 cache
// misses"), while all SSCG attributes of the row arrive with the page
// access(es) charged by the timed store, plus one DRAM touch per
// attribute parsed out of the page.
//
// Like the other RowID-taking helpers, Reconstruct pins the table's
// current structure for the duration of the call; the id itself must
// come from a query run since the last merge (RowIDs are stable only
// between merges).
func (e *Executor) Reconstruct(id table.RowID) ([]value.Value, error) {
	v := e.tbl.Pin()
	defer v.Release()
	mainRows := uint64(v.MainRows())
	if id >= mainRows {
		row, err := v.GetTuple(id)
		if err != nil {
			return nil, err
		}
		e.chargeTouches(len(row))
		return row, nil
	}
	n := e.tbl.Schema().Len()
	mrcAttrs := 0
	groupAttrs := 0
	for c := 0; c < n; c++ {
		if v.MRC(c) != nil {
			mrcAttrs++
		} else {
			groupAttrs++
		}
	}
	e.chargeTouches(2*mrcAttrs + groupAttrs)
	return v.GetTuple(id)
}

// Sum aggregates an Int64 or Float64 column over the given rows (a
// building block for the CH-benCHmark queries); for main-partition rows
// on an SSCG-placed column each access costs a page read.
func (e *Executor) Sum(col int, ids []table.RowID) (float64, error) {
	typ := e.tbl.Schema().Field(col).Type
	if typ == value.String {
		return 0, fmt.Errorf("exec: cannot sum string column %d", col)
	}
	v := e.tbl.Pin()
	defer v.Release()
	var total float64
	for _, id := range ids {
		if v.MRC(col) != nil || id >= uint64(v.MainRows()) {
			e.chargeTouches(2)
		}
		val, err := v.GetValue(id, col)
		if err != nil {
			return 0, err
		}
		if typ == value.Int64 {
			total += float64(val.Int())
		} else {
			total += val.Float()
		}
	}
	return total, nil
}

// GroupBySum groups the given rows by groupCol and sums aggCol within
// each group (the aggregation building block of the CH-benCHmark
// queries). For main-partition rows whose group or aggregate column is
// SSCG-placed, each access costs a page read through the timed store.
func (e *Executor) GroupBySum(groupCol, aggCol int, ids []table.RowID) (map[value.Value]float64, error) {
	aggType := e.tbl.Schema().Field(aggCol).Type
	if aggType == value.String {
		return nil, fmt.Errorf("exec: cannot sum string column %d", aggCol)
	}
	v := e.tbl.Pin()
	defer v.Release()
	out := make(map[value.Value]float64)
	for _, id := range ids {
		e.chargeTouches(4) // group key + aggregate fetches
		g, err := v.GetValue(id, groupCol)
		if err != nil {
			return nil, err
		}
		val, err := v.GetValue(id, aggCol)
		if err != nil {
			return nil, err
		}
		if aggType == value.Int64 {
			out[g] += float64(val.Int())
		} else {
			out[g] += val.Float()
		}
	}
	return out, nil
}
