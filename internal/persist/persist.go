// Package persist implements table snapshots: a durable, versioned
// binary format holding a table's schema, its column layout (which
// attributes are MRCs vs SSCG-placed), its rows visible at a snapshot
// timestamp and the index definitions to rebuild.
//
// Format TIERDB03, which every checkpoint writes, stores the main
// partition's own immutable arrays as they are, in this order after the
// header (magic, snapshot timestamp, name, schema, layout):
//
//   - the main's row count, then for each MRC its dictionary's sorted
//     values, its code width and its packed code words;
//   - for each column its equi-depth histogram and distinct count;
//   - the main rows not visible at the snapshot, ascending: rows deleted
//     at or before it, and rows a merge swap between the checkpoint's
//     quiesce and its pin folded in with a later begin;
//   - the SSCG's pages, byte for byte, from one ordered walk through the
//     page cache;
//   - the frozen and active delta rows visible at the snapshot, column
//     by column;
//   - the index definitions.
//
// Recovery adopts the arrays (table.Restore): the MRCs are read back
// into DRAM as they were, the SSCG pages go back to secondary storage
// without being decoded, and the hidden rows restore ended at the
// snapshot, so the next merge purges them. Only the indexes are derived
// again, from the codes. One of the paper's motivations for smaller DRAM
// footprints is reduced recovery time, and here restart work does follow
// the MRC share: the SSCG share costs one page write per page.
//
// Format TIERDB02, which every earlier build wrote and LoadAt still
// reads, is the header, the index definitions and every visible row,
// cell by cell; it restores through a bulk load and a merge to the saved
// layout. The snapshot timestamp after the magic makes either format
// self-describing for write-ahead-log recovery: restored rows keep their
// visibility point and replay can skip any logged operation the snapshot
// already covers. Any other magic, the never-written TIERDB01 included,
// is ErrBadSnapshot.
//
// Recover is the one way back from a write-ahead-log directory: it loads
// every checkpoint snapshot there at its own timestamp and replays the
// log on top. Snapshot files are published by wal.WriteFile.
package persist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"tierdb/internal/codec"
	"tierdb/internal/column"
	"tierdb/internal/dict"
	"tierdb/internal/histogram"
	"tierdb/internal/mvcc"
	"tierdb/internal/schema"
	"tierdb/internal/sscg"
	"tierdb/internal/table"
	"tierdb/internal/value"
)

// The magics open every snapshot; the trailing digits version the
// format.
var (
	magicV2 = []byte("TIERDB02")
	magicV3 = []byte("TIERDB03")
)

// ErrBadSnapshot is returned for corrupt, truncated or foreign files.
var ErrBadSnapshot = errors.New("persist: not a tierdb snapshot")

// bad wraps a low-level decode error (unexpected EOF, short read) as
// ErrBadSnapshot so callers can classify corruption with errors.Is.
func bad(err error) error {
	if err == nil || errors.Is(err, ErrBadSnapshot) {
		return err
	}
	return fmt.Errorf("%w: %v", ErrBadSnapshot, err)
}

// Save writes a snapshot of the table's rows visible at the latest
// commit, read with the pin (see table.Table.PinLatest).
func Save(w io.Writer, tbl *table.Table) error {
	v, snapshot := tbl.PinLatest()
	defer v.Release()
	return save(w, tbl, v, snapshot)
}

// SaveAt writes a snapshot of the rows visible at the given commit
// timestamp. Checkpoints pass a quiesced timestamp (see
// mvcc.Manager.QuiescedLastCommit), registered until SaveAt returns, so
// the snapshot is exact: every commit at or below it is included, none
// above it.
func SaveAt(w io.Writer, tbl *table.Table, snapshot mvcc.Timestamp) error {
	v := tbl.Pin()
	defer v.Release()
	return save(w, tbl, v, snapshot)
}

// save writes the TIERDB03 snapshot of the rows of v visible at
// snapshot. It allocates per column and per delta row, never per main
// row or page.
func save(w io.Writer, tbl *table.Table, v *table.View, snapshot mvcc.Timestamp) error {
	e := encoder{bufio.NewWriter(w)}
	e.Write(magicV3)
	e.uvarint(snapshot)
	s := tbl.Schema()
	e.Write(codec.AppendFields(codec.AppendString(e.AvailableBuffer(), tbl.Name()), s.Fields()))
	for col := 0; col < s.Len(); col++ {
		if v.MRC(col) != nil {
			e.WriteByte(1)
		} else {
			e.WriteByte(0)
		}
	}

	e.uvarint(uint64(v.MainRows()))
	for col := 0; col < s.Len(); col++ {
		if mrc := v.MRC(col); mrc != nil {
			e.values(mrc.Dictionary().Values())
			e.uvarint(uint64(mrc.Codes().Bits()))
			words := mrc.Codes().Words()
			e.uvarint(uint64(len(words)))
			for _, word := range words {
				e.word(word)
			}
		}
	}
	for col := 0; col < s.Len(); col++ {
		h := v.Histogram(col)
		if h == nil {
			e.uvarint(0)
			continue
		}
		lo, bounds, counts, distinct := h.Parts()
		e.ints(counts)
		e.uvarint(uint64(distinct))
		points := dict.Values{Type: s.Field(col).Type}
		points.Append(lo)
		for _, b := range bounds {
			points.Append(b)
		}
		e.values(points)
	}
	e.ints(v.MainVersions().HiddenAt(snapshot))
	if g := v.Group(); g != nil {
		e.uvarint(uint64(g.PageCount()))
		if err := g.ReadPages(func(page []byte) error { _, err := e.Write(page); return err }); err != nil {
			return fmt.Errorf("persist: read SSCG pages: %w", err)
		}
	}

	// The delta rows visible at the snapshot, in RowID order (frozen, then
	// active), column by column. Every row visible at the snapshot
	// physically exists within the view's bounds.
	deltaCols := make([]dict.Values, s.Len())
	for col := range deltaCols {
		deltaCols[col].Type = s.Field(col).Type
	}
	n := 0
	for id := uint64(v.MainRows()); id < uint64(v.MainRows()+v.FrozenRows()+v.ActiveRows()); id++ {
		if v.Visible(id, snapshot, 0) {
			row, err := v.GetTuple(id)
			if err != nil {
				return fmt.Errorf("persist: read delta row %d: %w", id, err)
			}
			for col, val := range row {
				deltaCols[col].Append(val)
			}
			n++
		}
	}
	e.uvarint(uint64(n))
	for _, vals := range deltaCols {
		e.values(vals)
	}

	var singles []int
	for c := 0; c < s.Len(); c++ {
		if tbl.Index(c) != nil {
			singles = append(singles, c)
		}
	}
	e.ints(singles)
	composites := tbl.CompositeIndexes()
	e.uvarint(uint64(len(composites)))
	for _, cols := range composites {
		e.ints(cols)
	}
	return e.Flush()
}

// Load restores a snapshot into a fresh table using the given storage
// options, with the saved layout and indexes.
func Load(r io.Reader, opts table.Options) (*table.Table, error) {
	tbl, _, err := LoadAt(r, opts)
	return tbl, err
}

// LoadAt is Load returning the snapshot's embedded quiesced timestamp
// as well. A nonzero timestamp makes the restored rows visible from
// exactly that timestamp and advances the table's transaction manager
// to it, so log replay can skip every operation with a timestamp at or
// below it. A TIERDB03 snapshot's main partition is adopted as stored
// (table.Restore); a TIERDB02 one is bulk-loaded and merged to its
// layout, at timestamp 0 (a table that never committed) as a fresh bulk
// load.
func LoadAt(r io.Reader, opts table.Options) (*table.Table, mvcc.Timestamp, error) {
	d := &decoder{r: bufio.NewReader(r)}
	magic := d.bytes(uint64(len(magicV3)))
	if d.err != nil {
		return nil, 0, d.err
	}
	v3 := bytes.Equal(magic, magicV3)
	if !v3 && !bytes.Equal(magic, magicV2) {
		return nil, 0, ErrBadSnapshot
	}
	snapshot := d.uvarint()
	if snapshot == math.MaxUint64 {
		d.fail("snapshot timestamp %d", snapshot)
	}
	name := d.string()
	if d.err == nil && name == "" {
		d.fail("empty table name")
	}
	nFields := d.count(maxFields, "fields")
	if d.err == nil && nFields == 0 {
		d.fail("no fields")
	}
	fields := make([]schema.Field, 0, nFields)
	for i := 0; i < nFields && d.err == nil; i++ {
		f := schema.Field{Name: d.string(), Type: value.Type(d.byte())}
		f.Width = d.count(codec.MaxFieldWidth, "bytes of field width")
		if f.Type > value.String {
			d.fail("field type %d", f.Type)
		}
		fields = append(fields, f)
	}
	if d.err != nil {
		return nil, 0, d.err
	}
	s, err := schema.New(fields)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: schema: %v", ErrBadSnapshot, err)
	}
	layout := make([]bool, nFields)
	for i := range layout {
		if b := d.byte(); b > 1 {
			d.fail("layout byte %d", b)
		} else {
			layout[i] = b == 1
		}
	}

	var tbl *table.Table
	var rows [][]value.Value
	var singles []int
	var composites [][]int
	if v3 {
		tbl, err = restore(d, name, s, layout, opts, snapshot)
		if err != nil {
			return nil, 0, err
		}
		tbl.Manager().AdvanceTo(snapshot)
		rows = d.rows(fields)
		singles, composites = d.indexes(nFields)
		if d.err != nil {
			return nil, 0, d.err
		}
		if err := tbl.BulkAppendAt(rows, snapshot); err != nil {
			return nil, 0, err
		}
	} else {
		singles, composites = d.indexes(nFields)
		nRows := d.uvarint()
		// Grow incrementally instead of trusting the row count: a corrupt
		// count then fails on EOF after allocating only what the input
		// actually backs.
		rows = make([][]value.Value, 0, min(nRows, 4096))
		for r := uint64(0); r < nRows && d.err == nil; r++ {
			row := make([]value.Value, len(fields))
			for c := range row {
				row[c] = d.value(fields[c].Type)
			}
			rows = append(rows, row)
		}
		if d.err != nil {
			return nil, 0, d.err
		}
		if tbl, err = table.New(name, s, opts); err != nil {
			return nil, 0, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
		}
		if snapshot > 0 {
			tbl.Manager().AdvanceTo(snapshot)
			err = tbl.BulkAppendAt(rows, snapshot)
		} else {
			err = tbl.BulkAppend(rows)
		}
		if err == nil {
			err = tbl.ApplyLayout(layout)
		}
		if err != nil {
			return nil, 0, err
		}
	}
	for _, c := range singles {
		if err := tbl.CreateIndex(c); err != nil {
			return nil, 0, err
		}
	}
	for _, cols := range composites {
		if err := tbl.CreateCompositeIndex(cols); err != nil {
			return nil, 0, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
		}
	}
	return tbl, snapshot, nil
}

// restore reads a TIERDB03 main partition, up to and including its SSCG
// pages, and creates the table holding it, its rows visible from
// snapshot on. Every array is checked before it is adopted: code widths
// and word counts, codes against their dictionary, dictionaries for
// strict order, histograms against the row count, hidden rows for range
// and order, and the page count against the rows a page holds.
func restore(d *decoder, name string, s *schema.Schema, layout []bool, opts table.Options, snapshot mvcc.Timestamp) (*table.Table, error) {
	rows := d.count(math.MaxUint32, "main rows")
	img := table.Image{Layout: layout, Rows: rows, MRCs: make([]*column.MRC, s.Len()), Hists: make([]*histogram.Histogram, s.Len())}
	var groupFields []schema.Field
	for col, f := range s.Fields() {
		if !layout[col] {
			groupFields = append(groupFields, f)
			continue
		}
		vals := d.values(f.Type, d.uvarint())
		width := d.uvarint()
		words := fixed(d, d.uvarint(), func(w uint64) uint64 { return w })
		if d.err != nil {
			return nil, d.err
		}
		dc, err := dict.FromSorted(vals)
		if err != nil {
			return nil, fmt.Errorf("%w: column %q: %v", ErrBadSnapshot, f.Name, err)
		}
		codes, err := dict.Unpack(uint(min(width, 64)), rows, words, uint32(dc.Size()))
		if err != nil {
			return nil, fmt.Errorf("%w: column %q: %v", ErrBadSnapshot, f.Name, err)
		}
		img.MRCs[col] = column.New(f.Name, dc, codes)
	}
	for col, f := range s.Fields() {
		img.Hists[col] = d.histogram(f.Type, rows)
	}
	hidden := d.count(uint64(rows), "hidden rows")
	img.Hidden = make([]int, 0, min(hidden, 4096))
	for i := 0; i < hidden && d.err == nil; i++ {
		row := d.count(uint64(rows)-1, "as a hidden row")
		if n := len(img.Hidden); n > 0 && row <= img.Hidden[n-1] {
			d.fail("hidden row %d after %d", row, img.Hidden[n-1])
		}
		img.Hidden = append(img.Hidden, row)
	}
	if len(groupFields) > 0 {
		if n, want := d.uvarint(), sscg.PageCount(groupFields, rows); d.err == nil && n != uint64(want) {
			d.fail("%d SSCG pages for %d rows, want %d", n, rows, want)
		}
		img.Pages = func(page []byte) error {
			copy(page, d.bytes(uint64(len(page))))
			return d.err
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	return table.Restore(name, s, opts, snapshot, img)
}

// histogram reads a column's histogram of rows rows — its bucket
// counts, distinct count, minimum and bucket bounds — or none, written as
// no bucket: at most table.HistogramBuckets buckets, whose counts sum to
// rows.
func (d *decoder) histogram(typ value.Type, rows int) *histogram.Histogram {
	counts := make([]int, d.count(table.HistogramBuckets, "histogram buckets"))
	if len(counts) == 0 {
		return nil
	}
	for i := range counts {
		counts[i] = d.count(uint64(rows), "rows in a bucket")
	}
	distinct := d.count(uint64(rows), "distinct values")
	points := d.values(typ, d.uvarint())
	if d.err == nil && points.Len() != len(counts)+1 {
		d.fail("histogram of %d bounds for %d buckets", points.Len()-1, len(counts))
	}
	if d.err != nil {
		return nil
	}
	bounds := make([]value.Value, len(counts))
	for i := range bounds {
		bounds[i] = points.At(i + 1)
	}
	h, err := histogram.FromParts(typ, points.At(0), bounds, counts, distinct)
	if err == nil && h.Total() != rows {
		err = fmt.Errorf("histogram of %d rows for %d", h.Total(), rows)
	}
	if err != nil {
		d.fail("%v", err)
		return nil
	}
	return h
}

// rows reads a TIERDB03 delta batch: the row count, then each column's
// values.
func (d *decoder) rows(fields []schema.Field) [][]value.Value {
	n := d.uvarint()
	cols := make([]dict.Values, len(fields))
	for c, f := range fields {
		if cols[c] = d.values(f.Type, d.uvarint()); d.err == nil && uint64(cols[c].Len()) != n {
			d.fail("delta column %q holds %d of %d rows", f.Name, cols[c].Len(), n)
		}
	}
	if d.err != nil {
		return nil
	}
	rows, cells := make([][]value.Value, n), make([]value.Value, int(n)*len(fields))
	for r := range rows {
		rows[r] = cells[r*len(fields) : (r+1)*len(fields)]
		for c := range fields {
			rows[r][c] = cols[c].At(r)
		}
	}
	return rows
}

// indexes reads the index definitions: the single-column indexes' columns,
// then each composite index's columns.
func (d *decoder) indexes(nFields int) (singles []int, composites [][]int) {
	singles = d.columns(nFields)
	n := d.count(maxFields, "composite indexes")
	for i := 0; i < n && d.err == nil; i++ {
		composites = append(composites, d.columns(nFields))
	}
	return singles, composites
}

// columns reads a list of at most nFields columns of the schema.
func (d *decoder) columns(nFields int) []int {
	n := d.count(uint64(nFields), "index columns")
	cols := make([]int, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		cols = append(cols, d.count(uint64(nFields-1), "as an index column"))
	}
	return cols
}

// --- primitive encoding ----------------------------------------------------

// Decode bounds: a snapshot cannot plausibly exceed these, and bounding
// them keeps corrupt uvarints from driving huge allocations.
const (
	maxFields    = 1 << 16
	maxStringLen = 1 << 24
	readChunk    = 1 << 16
)

// encoder writes the primitives. A bufio.Writer's errors stick, so they
// are checked once, by Flush. Each primitive is appended to the writer's
// own buffer, so writing one allocates nothing.
type encoder struct{ *bufio.Writer }

// room returns the writer's free buffer with space for n bytes.
func (e encoder) room(n int) []byte {
	if e.Available() < n {
		e.Flush()
	}
	return e.AvailableBuffer()
}

func (e encoder) uvarint(v uint64) {
	e.Write(binary.AppendUvarint(e.room(binary.MaxVarintLen64), v))
}

func (e encoder) word(v uint64) { e.Write(binary.LittleEndian.AppendUint64(e.room(8), v)) }

func (e encoder) string(s string) {
	e.uvarint(uint64(len(s)))
	e.WriteString(s)
}

// ints writes a count, then each value.
func (e encoder) ints(vs []int) {
	e.uvarint(uint64(len(vs)))
	for _, v := range vs {
		e.uvarint(uint64(v))
	}
}

// values writes a count, then the values: a number as 8 little-endian
// bytes, a string as its length and bytes.
func (e encoder) values(vs dict.Values) {
	e.uvarint(uint64(vs.Len()))
	for _, v := range vs.Ints {
		e.word(uint64(v))
	}
	for _, v := range vs.Floats {
		e.word(math.Float64bits(v))
	}
	for _, s := range vs.Strs {
		e.string(s)
	}
}

// decoder reads the primitives. The first error sticks, as an
// ErrBadSnapshot: every later read returns a zero value, and loops over
// a count stop. No count is trusted for an allocation larger than one
// chunk beyond what the input has backed.
type decoder struct {
	r       *bufio.Reader
	err     error
	scratch []byte
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: "+format, append([]any{ErrBadSnapshot}, args...)...)
	}
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(d.r)
	d.err = bad(err)
	return v
}

// count reads a uvarint that must not exceed limit.
func (d *decoder) count(limit uint64, what string) int {
	n := d.uvarint()
	if n > limit {
		d.fail("%d %s", n, what)
		return 0
	}
	return int(n)
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	b, err := d.r.ReadByte()
	d.err = bad(err)
	return b
}

// bytes reads n bytes in bounded chunks, so a lying length allocates no
// more than one chunk beyond what the input actually contains.
func (d *decoder) bytes(n uint64) []byte {
	buf := make([]byte, 0, min(n, readChunk))
	for uint64(len(buf)) < n && d.err == nil {
		start := len(buf)
		buf = append(buf, make([]byte, min(n-uint64(start), readChunk))...)
		_, err := io.ReadFull(d.r, buf[start:])
		d.err = bad(err)
	}
	return buf
}

func (d *decoder) string() string {
	return string(d.bytes(uint64(d.count(maxStringLen, "string bytes"))))
}

// value reads one TIERDB02 cell, a value as encoder.values writes it.
func (d *decoder) value(typ value.Type) value.Value {
	if vs := d.values(typ, 1); vs.Len() == 1 {
		return vs.At(0)
	}
	return value.Value{}
}

// values reads n values as encoder.values writes them after their count.
func (d *decoder) values(typ value.Type, n uint64) dict.Values {
	vs := dict.Values{Type: typ}
	switch typ {
	case value.Int64:
		vs.Ints = fixed(d, n, func(w uint64) int64 { return int64(w) })
	case value.Float64:
		vs.Floats = fixed(d, n, math.Float64frombits)
	default:
		for i := uint64(0); i < n && d.err == nil; i++ {
			vs.Strs = append(vs.Strs, d.string())
		}
	}
	return vs
}

// fixed reads n little-endian 8-byte words, a chunk at a time, as
// conv makes them.
func fixed[T any](d *decoder, n uint64, conv func(uint64) T) []T {
	out := make([]T, 0, min(n, readChunk/8))
	for uint64(len(out)) < n && d.err == nil {
		k := min(n-uint64(len(out)), readChunk/8) * 8
		if uint64(cap(d.scratch)) < k {
			d.scratch = make([]byte, readChunk)
		}
		b := d.scratch[:k]
		if _, err := io.ReadFull(d.r, b); err != nil {
			d.err = bad(err)
			break
		}
		for ; len(b) > 0; b = b[8:] {
			out = append(out, conv(binary.LittleEndian.Uint64(b)))
		}
	}
	return out
}
