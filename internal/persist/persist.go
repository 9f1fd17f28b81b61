// Package persist implements table snapshots: a durable, versioned
// binary format holding a table's schema, its column layout (which
// attributes are MRCs vs SSCG-placed) and all visible rows, plus the
// index definitions to rebuild. One of the paper's motivations for
// smaller DRAM footprints is reduced recovery times — after a restart
// only the MRC share of a snapshot must be decoded back into DRAM
// structures, while SSCG pages rebuild on cheap secondary storage.
//
// Format: TIERDB02 — the magic, then the snapshot timestamp, which
// makes snapshots self-describing for write-ahead-log recovery:
// restored rows keep their visibility point and replay can skip any
// logged operation the snapshot already covers. Every build has written
// this format; any other magic, the never-written TIERDB01 included, is
// ErrBadSnapshot.
package persist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"tierdb/internal/delta"
	"tierdb/internal/mvcc"
	"tierdb/internal/schema"
	"tierdb/internal/table"
	"tierdb/internal/value"
)

// magicV2 opens every snapshot; the trailing digits version the format.
var magicV2 = []byte("TIERDB02")

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

// Save writes a TIERDB02 snapshot of the table's rows visible at the
// latest commit, read with the pin (see table.Table.PinLatest).
func Save(w io.Writer, tbl *table.Table) error {
	v, snapshot := tbl.PinLatest()
	defer v.Release()
	return save(w, tbl, v, snapshot)
}

// SaveAt writes a TIERDB02 snapshot of the rows visible at the given
// commit timestamp. Checkpoints pass a quiesced timestamp (see
// mvcc.Manager.QuiescedLastCommit), registered until SaveAt returns, so
// the snapshot is exact: every commit at or below it is included, none
// above it.
func SaveAt(w io.Writer, tbl *table.Table, snapshot mvcc.Timestamp) error {
	v := tbl.Pin()
	defer v.Release()
	return save(w, tbl, v, snapshot)
}

// save writes the snapshot of the rows of v visible at snapshot.
func save(w io.Writer, tbl *table.Table, v *table.View, snapshot mvcc.Timestamp) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magicV2); err != nil {
		return err
	}
	if err := writeUvarint(bw, snapshot); err != nil {
		return err
	}
	if err := writeString(bw, tbl.Name()); err != nil {
		return err
	}
	s := tbl.Schema()
	if err := writeUvarint(bw, uint64(s.Len())); err != nil {
		return err
	}
	for i := 0; i < s.Len(); i++ {
		f := s.Field(i)
		if err := writeString(bw, f.Name); err != nil {
			return err
		}
		if err := bw.WriteByte(byte(f.Type)); err != nil {
			return err
		}
		if err := writeUvarint(bw, uint64(f.Width)); err != nil {
			return err
		}
	}
	layout := tbl.Layout()
	for _, in := range layout {
		b := byte(0)
		if in {
			b = 1
		}
		if err := bw.WriteByte(b); err != nil {
			return err
		}
	}

	// Index definitions.
	singles := make([]int, 0)
	for c := 0; c < s.Len(); c++ {
		if tbl.Index(c) != nil {
			singles = append(singles, c)
		}
	}
	if err := writeUvarint(bw, uint64(len(singles))); err != nil {
		return err
	}
	for _, c := range singles {
		if err := writeUvarint(bw, uint64(c)); err != nil {
			return err
		}
	}
	composites := tbl.CompositeIndexes()
	if err := writeUvarint(bw, uint64(len(composites))); err != nil {
		return err
	}
	for _, cols := range composites {
		if err := writeUvarint(bw, uint64(len(cols))); err != nil {
			return err
		}
		for _, c := range cols {
			if err := writeUvarint(bw, uint64(c)); err != nil {
				return err
			}
		}
	}

	// Rows: visible main-partition rows, then visible delta rows (the
	// frozen partition of an in-flight merge first, matching RowID
	// order). Every row visible at the snapshot physically exists within
	// the view's bounds.
	var rows [][]value.Value
	for _, r := range v.MainVersions().VisibleIn(0, v.MainRows(), snapshot, 0, nil) {
		tuple, err := v.GetTuple(uint64(r))
		if err != nil {
			return fmt.Errorf("persist: read main row %d: %w", r, err)
		}
		rows = append(rows, tuple)
	}
	collect := func(d *delta.Partition, bound int) error {
		for _, pos := range d.VisibleRows(snapshot, 0) {
			if int(pos) >= bound {
				continue
			}
			tuple, err := d.GetRow(int(pos))
			if err != nil {
				return fmt.Errorf("persist: read delta row %d: %w", pos, err)
			}
			rows = append(rows, tuple)
		}
		return nil
	}
	if fz := v.Frozen(); fz != nil {
		if err := collect(fz, v.FrozenRows()); err != nil {
			return err
		}
	}
	if err := collect(v.Active(), v.ActiveRows()); err != nil {
		return err
	}
	if err := writeUvarint(bw, uint64(len(rows))); err != nil {
		return err
	}
	for _, row := range rows {
		for _, v := range row {
			if err := writeValue(bw, v); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Load restores a snapshot into a fresh table using the given storage
// options, reapplying the saved layout and rebuilding indexes.
func Load(r io.Reader, opts table.Options) (*table.Table, error) {
	tbl, _, err := LoadAt(r, opts)
	return tbl, err
}

// LoadAt is Load returning the snapshot's embedded quiesced timestamp
// as well. A nonzero timestamp makes the restored rows visible from
// exactly that timestamp and advances the table's transaction manager
// to it, so log replay can skip every operation with a timestamp at or
// below it; at 0 (a table that never committed) the rows restore as a
// fresh bulk load.
func LoadAt(r io.Reader, opts table.Options) (*table.Table, mvcc.Timestamp, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(magicV2))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, 0, bad(err)
	}
	if !bytes.Equal(head, magicV2) {
		return nil, 0, ErrBadSnapshot
	}
	snapshot, err := readUvarint(br)
	if err != nil {
		return nil, 0, bad(err)
	}
	if snapshot == math.MaxUint64 {
		return nil, 0, fmt.Errorf("%w: snapshot timestamp %d", ErrBadSnapshot, snapshot)
	}
	name, err := readString(br)
	if err != nil {
		return nil, 0, bad(err)
	}
	nFields, err := readUvarint(br)
	if err != nil {
		return nil, 0, bad(err)
	}
	if nFields == 0 || nFields > maxFields {
		return nil, 0, fmt.Errorf("%w: %d fields", ErrBadSnapshot, nFields)
	}
	fields := make([]schema.Field, 0, nFields)
	for i := 0; i < int(nFields); i++ {
		fname, err := readString(br)
		if err != nil {
			return nil, 0, bad(err)
		}
		typ, err := br.ReadByte()
		if err != nil {
			return nil, 0, bad(err)
		}
		if value.Type(typ) > value.String {
			return nil, 0, fmt.Errorf("%w: field type %d", ErrBadSnapshot, typ)
		}
		width, err := readUvarint(br)
		if err != nil {
			return nil, 0, bad(err)
		}
		if width > maxStringLen {
			return nil, 0, fmt.Errorf("%w: field width %d", ErrBadSnapshot, width)
		}
		fields = append(fields, schema.Field{Name: fname, Type: value.Type(typ), Width: int(width)})
	}
	s, err := schema.New(fields)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: schema: %v", ErrBadSnapshot, err)
	}
	layout := make([]bool, nFields)
	for i := range layout {
		b, err := br.ReadByte()
		if err != nil {
			return nil, 0, bad(err)
		}
		if b > 1 {
			return nil, 0, fmt.Errorf("%w: layout byte %d", ErrBadSnapshot, b)
		}
		layout[i] = b == 1
	}

	readCols := func(n uint64) ([]int, error) {
		if n > nFields {
			return nil, fmt.Errorf("%w: %d index columns over %d fields", ErrBadSnapshot, n, nFields)
		}
		cols := make([]int, 0, n)
		for i := 0; i < int(n); i++ {
			c, err := readUvarint(br)
			if err != nil {
				return nil, bad(err)
			}
			if c >= nFields {
				return nil, fmt.Errorf("%w: index column %d out of range", ErrBadSnapshot, c)
			}
			cols = append(cols, int(c))
		}
		return cols, nil
	}
	nSingles, err := readUvarint(br)
	if err != nil {
		return nil, 0, bad(err)
	}
	singles, err := readCols(nSingles)
	if err != nil {
		return nil, 0, err
	}
	nComposites, err := readUvarint(br)
	if err != nil {
		return nil, 0, bad(err)
	}
	if nComposites > maxFields {
		return nil, 0, fmt.Errorf("%w: %d composite indexes", ErrBadSnapshot, nComposites)
	}
	composites := make([][]int, 0, nComposites)
	for i := 0; i < int(nComposites); i++ {
		n, err := readUvarint(br)
		if err != nil {
			return nil, 0, bad(err)
		}
		cols, err := readCols(n)
		if err != nil {
			return nil, 0, err
		}
		composites = append(composites, cols)
	}

	nRows, err := readUvarint(br)
	if err != nil {
		return nil, 0, bad(err)
	}
	// Grow incrementally instead of trusting the row count: a corrupt
	// count then fails on EOF after allocating only what the input
	// actually backs.
	rows := make([][]value.Value, 0, min(nRows, 4096))
	for r := 0; r < int(nRows); r++ {
		row := make([]value.Value, len(fields))
		for c := range row {
			v, err := readValue(br, fields[c].Type)
			if err != nil {
				return nil, 0, fmt.Errorf("%w: row %d field %d: %v", ErrBadSnapshot, r, c, err)
			}
			row[c] = v
		}
		rows = append(rows, row)
	}

	tbl, err := table.New(name, s, opts)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	if snapshot > 0 {
		tbl.Manager().AdvanceTo(snapshot)
		if err := tbl.BulkAppendAt(rows, snapshot); err != nil {
			return nil, 0, err
		}
	} else if err := tbl.BulkAppend(rows); err != nil {
		return nil, 0, err
	}
	if err := tbl.ApplyLayout(layout); err != nil {
		return nil, 0, err
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

// SaveFile snapshots to a file, atomically and durably: temp file,
// fsync, rename, then fsync of the parent directory — without the two
// fsyncs a snapshot could be silently empty (or the rename lost) after
// a power failure despite the temp+rename dance.
func SaveFile(path string, tbl *table.Table) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := Save(f, tbl); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory to make a completed rename durable; some
// filesystems reject directory fsync, which is not fatal there.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, os.ErrInvalid) {
		return err
	}
	return nil
}

// LoadFile restores a snapshot file.
func LoadFile(path string, opts table.Options) (*table.Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f, opts)
}

// --- primitive encoding ----------------------------------------------------

// Decode bounds: a snapshot cannot plausibly exceed these, and bounding
// them keeps corrupt uvarints from driving huge allocations.
const (
	maxFields    = 1 << 16
	maxStringLen = 1 << 24
	readChunk    = 1 << 16
)

func writeUvarint(w *bufio.Writer, v uint64) error {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	_, err := w.Write(buf[:n])
	return err
}

func readUvarint(r *bufio.Reader) (uint64, error) {
	return binary.ReadUvarint(r)
}

func writeString(w *bufio.Writer, s string) error {
	if err := writeUvarint(w, uint64(len(s))); err != nil {
		return err
	}
	_, err := w.WriteString(s)
	return err
}

func readString(r *bufio.Reader) (string, error) {
	n, err := readUvarint(r)
	if err != nil {
		return "", err
	}
	if n > maxStringLen {
		return "", fmt.Errorf("persist: string length %d implausible", n)
	}
	// Read in bounded chunks so a lying length allocates no more than
	// one chunk beyond what the input actually contains.
	buf := make([]byte, 0, min(n, readChunk))
	for uint64(len(buf)) < n {
		chunk := min(n-uint64(len(buf)), readChunk)
		start := len(buf)
		buf = append(buf, make([]byte, chunk)...)
		if _, err := io.ReadFull(r, buf[start:]); err != nil {
			return "", err
		}
	}
	return string(buf), nil
}

func writeValue(w *bufio.Writer, v value.Value) error {
	switch v.Type() {
	case value.Int64:
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(v.Int()))
		_, err := w.Write(buf[:])
		return err
	case value.Float64:
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v.Float()))
		_, err := w.Write(buf[:])
		return err
	case value.String:
		return writeString(w, v.Str())
	default:
		return fmt.Errorf("persist: cannot encode type %s", v.Type())
	}
}

func readValue(r *bufio.Reader, t value.Type) (value.Value, error) {
	switch t {
	case value.Int64:
		var buf [8]byte
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			return value.Value{}, err
		}
		return value.NewInt(int64(binary.LittleEndian.Uint64(buf[:]))), nil
	case value.Float64:
		var buf [8]byte
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			return value.Value{}, err
		}
		return value.NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))), nil
	case value.String:
		s, err := readString(r)
		if err != nil {
			return value.Value{}, err
		}
		return value.NewString(s), nil
	default:
		return value.Value{}, fmt.Errorf("persist: cannot decode type %s", t)
	}
}
