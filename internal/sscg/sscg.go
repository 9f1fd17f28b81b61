// Package sscg implements Secondary-Storage Column Groups: the
// row-oriented, uncompressed representation of evicted attributes
// (paper Section II-A). All attributes of a group are stored adjacent in
// fixed-width slots, so a full-width tuple reconstruction touches a
// single 4 KB page (or the minimal number of consecutive pages for rows
// wider than a page), trading space for point-access locality. Scans of
// an SSCG-placed attribute must read every page of the group, which is
// exactly the slowdown the column selection model avoids by keeping
// sequentially accessed columns in DRAM.
package sscg

import (
	"fmt"
	"slices"
	"sync"

	"tierdb/internal/amm"
	"tierdb/internal/schema"
	"tierdb/internal/storage"
	"tierdb/internal/value"
)

// Group is an immutable row-oriented column group on secondary storage.
type Group struct {
	fields      []schema.Field
	offsets     []int
	rowWidth    int
	rows        int
	rowsPerPage int // > 0 when rows pack into single pages
	pagesPerRow int // > 1 when one row spans multiple pages
	pages       []storage.PageID
	store       storage.Store
	cache       *amm.Cache

	bufs sync.Pool
}

// Build encodes rows (each a slice of values matching fields) into
// pages of store. If cache is non-nil, reads go through it.
func Build(fields []schema.Field, rows [][]value.Value, store storage.Store, cache *amm.Cache) (*Group, error) {
	return BuildFunc(fields, len(rows), func(r int, slots [][]byte) error {
		row := rows[r]
		if len(row) != len(fields) {
			return fmt.Errorf("sscg: row %d has %d values, want %d", r, len(row), len(fields))
		}
		for f, v := range row {
			if v.Type() != fields[f].Type {
				return fmt.Errorf("sscg: row %d field %q: type %s, want %s", r, fields[f].Name, v.Type(), fields[f].Type)
			}
			if err := value.EncodeFixed(v, slots[f]); err != nil {
				return fmt.Errorf("sscg: row %d field %q: %w", r, fields[f].Name, err)
			}
		}
		return nil
	}, store, cache)
}

// BuildFunc writes a group of n rows to pages of store, taking each
// row's bytes from fill: it is called for rows 0..n-1 in order with one
// zeroed slot per field (SlotWidth bytes each), which it fills by
// encoding a value or by copying the slot of another group. If cache is
// non-nil, reads go through it.
func BuildFunc(fields []schema.Field, n int, fill func(row int, slots [][]byte) error, store storage.Store, cache *amm.Cache) (*Group, error) {
	return build(fields, n, store, cache, func(g *Group) error { return g.writeRows(fill) })
}

// Restore writes a group of n rows whose pages, PageCount(fields, n) of
// them, are each filled in order by read — how recovery adopts the pages
// a checkpoint copied byte for byte (ReadPages). If cache is non-nil,
// reads go through it.
func Restore(fields []schema.Field, n int, read func(page []byte) error, store storage.Store, cache *amm.Cache) (*Group, error) {
	return build(fields, n, store, cache, func(g *Group) error {
		page := make([]byte, storage.PageSize)
		for range g.pageCount() {
			if err := read(page); err != nil {
				return err
			}
			if err := g.writePage(page); err != nil {
				return err
			}
		}
		return nil
	})
}

// PageCount returns how many pages a group of n rows of fields occupies.
func PageCount(fields []schema.Field, n int) int {
	g := &Group{fields: fields, rows: n}
	g.layOut()
	return g.pageCount()
}

// build lays out a group of n rows of fields and writes its pages with
// write.
func build(fields []schema.Field, n int, store storage.Store, cache *amm.Cache, write func(g *Group) error) (*Group, error) {
	if len(fields) == 0 {
		return nil, fmt.Errorf("sscg: no fields")
	}
	g := &Group{
		fields: append([]schema.Field(nil), fields...),
		store:  store,
		cache:  cache,
		rows:   n,
	}
	g.layOut()
	g.bufs.New = newPageBuf
	if err := write(g); err != nil {
		// Return already-written pages to the freelist so an aborted
		// build (e.g. a storage fault mid-merge) leaks nothing; the
		// fault-injection tests assert the page count returns to its
		// pre-merge level. Best effort: the original error wins.
		if len(g.pages) > 0 {
			_ = store.FreePages(g.pages)
		}
		return nil, err
	}
	return g, nil
}

// layOut places the fields' slots in a row and the rows on pages.
func (g *Group) layOut() {
	g.offsets = make([]int, len(g.fields))
	for i, f := range g.fields {
		g.offsets[i] = g.rowWidth
		g.rowWidth += f.SlotWidth()
	}
	if g.rowWidth <= storage.PageSize {
		g.rowsPerPage = storage.PageSize / g.rowWidth
		g.pagesPerRow = 1
	} else {
		g.pagesPerRow = (g.rowWidth + storage.PageSize - 1) / storage.PageSize
	}
}

// pageCount returns how many pages the group's rows occupy.
func (g *Group) pageCount() int {
	if g.pagesPerRow > 1 {
		return g.rows * g.pagesPerRow
	}
	return (g.rows + g.rowsPerPage - 1) / g.rowsPerPage
}

// writePage allocates the group's next page and writes data to it.
func (g *Group) writePage(data []byte) error {
	id, err := g.store.Allocate()
	if err != nil {
		return fmt.Errorf("sscg: allocate page: %w", err)
	}
	// Track the page before writing it: a failed write must still reach
	// the abort path's FreePages or the page leaks.
	g.pages = append(g.pages, id)
	if err := g.store.WritePage(id, data); err != nil {
		return fmt.Errorf("sscg: write page: %w", err)
	}
	return nil
}

// writeRows fills and persists all rows.
func (g *Group) writeRows(fill func(row int, slots [][]byte) error) error {
	rowBuf := make([]byte, g.rowWidth)
	slots := g.slots(rowBuf, nil)
	page := make([]byte, storage.PageSize)
	inPage := 0
	flush := func() error {
		if err := g.writePage(page); err != nil {
			return err
		}
		clear(page)
		inPage = 0
		return nil
	}
	for r := 0; r < g.rows; r++ {
		clear(rowBuf)
		if err := fill(r, slots); err != nil {
			return err
		}
		if g.pagesPerRow == 1 {
			copy(page[inPage*g.rowWidth:], rowBuf)
			inPage++
			if inPage == g.rowsPerPage {
				if err := flush(); err != nil {
					return err
				}
			}
		} else {
			// Spanning rows occupy pagesPerRow consecutive pages each.
			for off := 0; off < g.rowWidth; off += storage.PageSize {
				n := copy(page, rowBuf[off:])
				clear(page[n:])
				if err := flush(); err != nil {
					return err
				}
			}
		}
	}
	if g.pagesPerRow == 1 && inPage > 0 {
		if err := flush(); err != nil {
			return err
		}
	}
	return nil
}

// slots cuts one row's bytes into its per-field slots, reusing out.
func (g *Group) slots(row []byte, out [][]byte) [][]byte {
	out = out[:0]
	for f, fd := range g.fields {
		out = append(out, row[g.offsets[f]:g.offsets[f]+fd.SlotWidth()])
	}
	return out
}

// ReadRows calls fn for every row in [lo, hi), ascending, with the row's
// slots, one per field; they are valid only during the call. It walks
// the range page by page through the cache (when configured), so each
// page is read once and in order — how a merge copies the rows it keeps.
func (g *Group) ReadRows(lo, hi int, fn func(row int, slots [][]byte) error) error {
	lo, hi = max(lo, 0), min(hi, g.rows)
	if lo >= hi {
		return nil
	}
	slots := make([][]byte, 0, len(g.fields))
	if g.pagesPerRow == 1 {
		for pageIdx := lo / g.rowsPerPage; pageIdx <= (hi-1)/g.rowsPerPage; pageIdx++ {
			first := pageIdx * g.rowsPerPage
			err := g.readPage(g.pages[pageIdx], func(data []byte) error {
				for row := max(first, lo); row < min(first+g.rowsPerPage, hi); row++ {
					off := (row - first) * g.rowWidth
					if err := fn(row, g.slots(data[off:off+g.rowWidth], slots)); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
		}
		return nil
	}
	rowBytes := make([]byte, g.rowWidth)
	for row := lo; row < hi; row++ {
		if err := g.readRow(row, rowBytes); err != nil {
			return err
		}
		if err := fn(row, g.slots(rowBytes, slots)); err != nil {
			return err
		}
	}
	return nil
}

// ReadPages calls fn with each page of the group in order, read once
// through the cache (when configured) as ReadRows reads them — how a
// checkpoint copies the group byte for byte (Restore). The content is
// only valid during the call.
func (g *Group) ReadPages(fn func(page []byte) error) error {
	for _, id := range g.pages {
		if err := g.readPage(id, fn); err != nil {
			return err
		}
	}
	return nil
}

// FieldIndex returns the position of the named field within the group,
// or -1.
func (g *Group) FieldIndex(name string) int {
	for i, f := range g.fields {
		if f.Name == name {
			return i
		}
	}
	return -1
}

// RowWidth returns the fixed row width in bytes.
func (g *Group) RowWidth() int { return g.rowWidth }

// PageCount returns the number of 4 KB pages the group occupies.
func (g *Group) PageCount() int { return len(g.pages) }

// Bytes returns the secondary-storage footprint.
func (g *Group) Bytes() int64 { return int64(len(g.pages)) * storage.PageSize }

// RowsPerPage returns how many rows share one 4 KB page (0 when a row
// spans multiple pages). Parallel scans align their morsel boundaries
// to it so no page is read by two workers.
func (g *Group) RowsPerPage() int { return g.rowsPerPage }

// WithBacking returns a read-only view of the group whose page reads go
// through store instead of the group's own. The layout, page ids and
// cache stay shared; the page buffer pool is private to the view, so
// workers holding one view each never contend on buffers. Each executor
// worker reads through a view whose store counts the worker's page
// reads, which the executor charges to the device once per query.
func (g *Group) WithBacking(store storage.Store) *Group {
	ng := &Group{
		fields:      g.fields,
		offsets:     g.offsets,
		rowWidth:    g.rowWidth,
		rows:        g.rows,
		rowsPerPage: g.rowsPerPage,
		pagesPerRow: g.pagesPerRow,
		pages:       g.pages,
		store:       store,
		cache:       g.cache,
	}
	ng.bufs.New = newPageBuf
	return ng
}

func newPageBuf() any {
	b := make([]byte, storage.PageSize)
	return &b
}

// Free invalidates the group's pages in the cache and returns them to
// the store's freelist.
// Call it only on the canonical group — never on WithBacking views —
// and only once no reader can touch the group again: the online merge
// frees a retired main partition's group when the last pinned table
// view referencing it is released, and a failed rebuild frees the
// partially built group it abandons.
func (g *Group) Free() error {
	if len(g.pages) == 0 {
		return nil
	}
	if g.cache != nil {
		g.cache.Invalidate(g.pages)
	}
	return g.store.FreePages(g.pages)
}

// readPage fetches a page via the cache (if configured) or the store,
// passing the content to fn. The content is only valid during fn.
func (g *Group) readPage(id storage.PageID, fn func(data []byte) error) error {
	if g.cache != nil {
		data, _, err := g.cache.GetVia(id, g.store)
		if err != nil {
			return err
		}
		defer g.cache.Release(id)
		return fn(data)
	}
	bufp := g.bufs.Get().(*[]byte)
	defer g.bufs.Put(bufp)
	if err := g.store.ReadPage(id, *bufp); err != nil {
		return err
	}
	return fn(*bufp)
}

// checkRow validates a row index.
func (g *Group) checkRow(row int) error {
	if row < 0 || row >= g.rows {
		return fmt.Errorf("sscg: row %d out of range (%d rows)", row, g.rows)
	}
	return nil
}

// checkField validates a field index.
func (g *Group) checkField(field int) error {
	if field < 0 || field >= len(g.fields) {
		return fmt.Errorf("sscg: field %d out of range (%d fields)", field, len(g.fields))
	}
	return nil
}

// ReadRow reconstructs the full row: a single page access for packed
// layouts, pagesPerRow consecutive accesses for spanning layouts.
func (g *Group) ReadRow(row int) ([]value.Value, error) {
	rowBytes := make([]byte, g.rowWidth)
	if err := g.ReadRowBytes(row, rowBytes); err != nil {
		return nil, err
	}
	out := make([]value.Value, len(g.fields))
	for f := range out {
		var err error
		if out[f], err = g.Field(rowBytes, f); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ReadRowBytes copies row's bytes into buf, which must hold RowWidth
// bytes: ReadRow's page accesses without its allocations. Field decodes
// the fields out of buf.
func (g *Group) ReadRowBytes(row int, buf []byte) error {
	if err := g.checkRow(row); err != nil {
		return err
	}
	return g.readRow(row, buf[:g.rowWidth])
}

// readRow copies row's bytes into buf: one page access for packed
// layouts, pagesPerRow consecutive ones for spanning layouts.
func (g *Group) readRow(row int, buf []byte) error {
	if g.pagesPerRow == 1 {
		off := (row % g.rowsPerPage) * g.rowWidth
		return g.readPage(g.pages[row/g.rowsPerPage], func(data []byte) error {
			copy(buf, data[off:off+g.rowWidth])
			return nil
		})
	}
	for p := 0; p < g.pagesPerRow; p++ {
		off := p * storage.PageSize
		err := g.readPage(g.pages[row*g.pagesPerRow+p], func(data []byte) error {
			copy(buf[off:], data)
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// Slot returns field f's slot of a row's bytes as ReadRowBytes left
// them.
func (g *Group) Slot(rowBytes []byte, f int) []byte {
	return rowBytes[g.offsets[f] : g.offsets[f]+g.fields[f].SlotWidth()]
}

// Field decodes field f of a row's bytes as ReadRowBytes left them.
func (g *Group) Field(rowBytes []byte, f int) (value.Value, error) {
	v, err := value.DecodeFixed(g.fields[f].Type, g.Slot(rowBytes, f))
	if err != nil {
		return value.Value{}, fmt.Errorf("sscg: decode field %q: %w", g.fields[f].Name, err)
	}
	return v, nil
}

// ReadField reads a single field of a row, touching only the page(s)
// covering its slot.
func (g *Group) ReadField(row, field int) (value.Value, error) {
	if err := g.checkField(field); err != nil {
		return value.Value{}, err
	}
	return g.readField(row, field, make([]byte, g.fields[field].SlotWidth()))
}

// readField is ReadField reading the slot into slot, which holds the
// field's SlotWidth bytes.
func (g *Group) readField(row, field int, slot []byte) (value.Value, error) {
	if err := g.checkRow(row); err != nil {
		return value.Value{}, err
	}
	fd := g.fields[field]
	if g.pagesPerRow == 1 {
		pageIdx := row / g.rowsPerPage
		off := (row%g.rowsPerPage)*g.rowWidth + g.offsets[field]
		err := g.readPage(g.pages[pageIdx], func(data []byte) error {
			copy(slot, data[off:off+len(slot)])
			return nil
		})
		if err != nil {
			return value.Value{}, err
		}
	} else {
		base := row * g.pagesPerRow
		start := g.offsets[field]
		for got := 0; got < len(slot); {
			pageIdx := (start + got) / storage.PageSize
			pageOff := (start + got) % storage.PageSize
			n := min(len(slot)-got, storage.PageSize-pageOff)
			err := g.readPage(g.pages[base+pageIdx], func(data []byte) error {
				copy(slot[got:got+n], data[pageOff:pageOff+n])
				return nil
			})
			if err != nil {
				return value.Value{}, err
			}
			got += n
		}
	}
	return value.DecodeFixed(fd.Type, slot)
}

// Scan evaluates pred against every row's field, appending matching
// positions to out. It reads every page of the group once — the
// expensive path the placement model avoids.
func (g *Group) Scan(field int, pred func(value.Value) bool, out []uint32, skip func(int) bool) ([]uint32, error) {
	return g.ScanRows(field, pred, 0, g.rows, out, skip)
}

// ScanRows evaluates pred against rows in [rowLo, rowHi), appending
// matching positions to out in ascending row order. Morsel-driven
// parallel scans call it with disjoint row ranges; ranges aligned to
// RowsPerPage boundaries read every covered page exactly once. The
// executor passes a nil skip and filters a morsel's matches by MVCC
// visibility itself, under one lock hold; a non-nil skip masks rows out
// of the matches after the scan, so there is one scan loop.
func (g *Group) ScanRows(field int, pred func(value.Value) bool, rowLo, rowHi int, out []uint32, skip func(int) bool) ([]uint32, error) {
	if err := g.checkField(field); err != nil {
		return nil, err
	}
	rowLo, rowHi = max(rowLo, 0), min(rowHi, g.rows)
	if rowLo >= rowHi {
		return out, nil
	}
	from := len(out)
	fd := g.fields[field]
	if g.pagesPerRow == 1 {
		for pageIdx := rowLo / g.rowsPerPage; pageIdx <= (rowHi-1)/g.rowsPerPage; pageIdx++ {
			first := pageIdx * g.rowsPerPage
			lo := max(first, rowLo)
			hi := min(first+g.rowsPerPage, rowHi)
			err := g.readPage(g.pages[pageIdx], func(data []byte) error {
				for row := lo; row < hi; row++ {
					off := (row-first)*g.rowWidth + g.offsets[field]
					v, err := value.DecodeFixed(fd.Type, data[off:off+fd.SlotWidth()])
					if err != nil {
						return err
					}
					if pred(v) {
						out = append(out, uint32(row))
					}
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
		}
	} else {
		for row := rowLo; row < rowHi; row++ {
			v, err := g.ReadField(row, field)
			if err != nil {
				return nil, err
			}
			if pred(v) {
				out = append(out, uint32(row))
			}
		}
	}
	if skip == nil {
		return out, nil
	}
	return out[:from+len(slices.DeleteFunc(out[from:], func(pos uint32) bool { return skip(int(pos)) }))], nil
}

// Probe evaluates pred at the given candidate positions only, appending
// matches to out (point accesses, one page read per candidate), reading
// every candidate's slot into one buffer.
func (g *Group) Probe(field int, pred func(value.Value) bool, candidates []uint32, out []uint32) ([]uint32, error) {
	if err := g.checkField(field); err != nil {
		return nil, err
	}
	slot := make([]byte, g.fields[field].SlotWidth())
	for _, pos := range candidates {
		v, err := g.readField(int(pos), field, slot)
		if err != nil {
			return nil, err
		}
		if pred(v) {
			out = append(out, pos)
		}
	}
	return out, nil
}
