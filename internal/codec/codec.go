// Package codec is the byte-level vocabulary the WAL record codec and
// the wire protocol share: the frame header both put before a payload
// (uvarint length, then the payload's CRC-32C, 4 bytes LE),
// uvarint-prefixed strings, self-describing values (type byte, then 8
// fixed bytes for numerics or a string) and rows of them, a schema's
// field list and a layout's DRAM bits, plus the cursor that decodes
// them. A snapshot header holds the same field list. Both inputs can be
// hostile or torn, so the Reader never trusts a length it cannot verify
// against the remaining input: bad input yields the caller's sentinel
// error — never a panic or an unbounded allocation.
//
// A Reader from NewReader copies every string it decodes. One from
// NewSharedReader makes one string of its whole payload, at the first
// non-empty string, and returns each string as a substring of it: a
// reply's strings cost one allocation, and keeping one of them keeps
// the reply's bytes. Only a reply the caller reads and lets go is
// decoded that way; requests and WAL records are decoded by copying,
// because the delta keeps their strings for as long as the table lives.
package codec

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"

	"tierdb/internal/schema"
	"tierdb/internal/value"
)

// MaxFieldWidth bounds a decoded field's width.
const MaxFieldWidth = 1 << 24

// MaxKeptBuffer is the largest buffer a long-lived reader or writer —
// the WAL, either end of a wire connection — keeps for its next record
// once one is done; a larger one, a bulk load's, is let go.
const MaxKeptBuffer = 1 << 20

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns payload's CRC-32C, the checksum a frame header
// carries.
func Checksum(payload []byte) uint32 { return crc32.Checksum(payload, crcTable) }

// AppendFrameHeader appends payload's frame header to buf: its uvarint
// length, then its Checksum, 4 bytes little-endian.
func AppendFrameHeader(buf, payload []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(payload)))
	return binary.LittleEndian.AppendUint32(buf, Checksum(payload))
}

// AppendString appends s with a uvarint length prefix.
func AppendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// AppendValue appends v in its self-describing encoding.
func AppendValue(buf []byte, v value.Value) []byte {
	buf = append(buf, byte(v.Type()))
	switch v.Type() {
	case value.Int64:
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v.Int()))
	case value.Float64:
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.Float()))
	default:
		buf = AppendString(buf, v.Str())
	}
	return buf
}

// AppendRow appends a uvarint value count and the values.
func AppendRow(buf []byte, row []value.Value) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(row)))
	for _, v := range row {
		buf = AppendValue(buf, v)
	}
	return buf
}

// AppendFields appends a uvarint field count, then each field's name,
// type byte and uvarint width.
func AppendFields(buf []byte, fields []schema.Field) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(fields)))
	for _, f := range fields {
		buf = AppendString(buf, f.Name)
		buf = append(buf, byte(f.Type))
		buf = binary.AppendUvarint(buf, uint64(f.Width))
	}
	return buf
}

// AppendBools appends a uvarint count, then one byte per bit: 1 for
// true, 0 for false.
func AppendBools(buf []byte, bits []bool) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(bits)))
	for _, b := range bits {
		if b {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	return buf
}

// Reader is a bounds-checked cursor over a decoded payload.
type Reader struct {
	buf []byte
	pos int
	bad error
	// share makes String return substrings of str, buf made a string
	// once.
	share bool
	str   string
}

// NewReader reads buf; every malformed-input error it returns is bad,
// or wraps it.
func NewReader(buf []byte, bad error) *Reader {
	return &Reader{buf: buf, bad: bad}
}

// NewSharedReader is NewReader whose strings share one copy of buf.
func NewSharedReader(buf []byte, bad error) *Reader {
	return &Reader{buf: buf, bad: bad, share: true}
}

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.pos }

// Byte reads one byte.
func (r *Reader) Byte() (byte, error) {
	if r.Remaining() < 1 {
		return 0, r.bad
	}
	b := r.buf[r.pos]
	r.pos++
	return b, nil
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() (uint64, error) {
	x, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		return 0, r.bad
	}
	r.pos += n
	return x, nil
}

// Count reads a uvarint element count and rejects it when even at min
// bytes per element it cannot fit in the remaining payload — the bound
// that keeps corrupt or hostile counts from driving huge allocations.
func (r *Reader) Count(minBytesPerElem int) (int, error) {
	n, err := r.Uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(r.Remaining()/minBytesPerElem) {
		return 0, r.bad
	}
	return int(n), nil
}

// Bytes reads n bytes, aliasing the payload.
func (r *Reader) Bytes(n int) ([]byte, error) {
	if n < 0 || r.Remaining() < n {
		return nil, r.bad
	}
	b := r.buf[r.pos : r.pos+n]
	r.pos += n
	return b, nil
}

// LenBytes reads a uvarint length and that many bytes, aliasing the
// payload.
func (r *Reader) LenBytes() ([]byte, error) {
	n, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(r.Remaining()) {
		return nil, r.bad
	}
	return r.Bytes(int(n))
}

// String reads a uvarint-prefixed string.
func (r *Reader) String() (string, error) {
	b, err := r.LenBytes()
	if err != nil || !r.share || len(b) == 0 {
		return string(b), err
	}
	if r.str == "" {
		r.str = string(r.buf)
	}
	return r.str[r.pos-len(b) : r.pos], nil
}

// Value reads one self-describing value.
func (r *Reader) Value() (value.Value, error) {
	t, err := r.Byte()
	if err != nil {
		return value.Value{}, err
	}
	switch value.Type(t) {
	case value.Int64:
		b, err := r.Bytes(8)
		if err != nil {
			return value.Value{}, err
		}
		return value.NewInt(int64(binary.LittleEndian.Uint64(b))), nil
	case value.Float64:
		b, err := r.Bytes(8)
		if err != nil {
			return value.Value{}, err
		}
		return value.NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(b))), nil
	case value.String:
		s, err := r.String()
		if err != nil {
			return value.Value{}, err
		}
		return value.NewString(s), nil
	}
	return value.Value{}, r.bad
}

// Row reads a counted row of values.
func (r *Reader) Row() ([]value.Value, error) { return r.appendRow(nil) }

// Rows reads n counted rows into one backing array, row i a capped view
// of it, so appending to one row cannot overwrite the next. The array is
// sized from the first row's width, which the rows of a reply or a bulk
// load share, and never beyond what the remaining payload can hold at
// two bytes a value, the shortest encoding (a type byte and an empty
// string's length).
func (r *Reader) Rows(n int) ([][]value.Value, error) {
	rows := make([][]value.Value, n)
	var vals []value.Value
	if width, k := binary.Uvarint(r.buf[r.pos:]); k > 0 {
		most := uint64(r.Remaining() / 2)
		vals = make([]value.Value, 0, min(min(width, most)*uint64(n), most))
	}
	for i := range rows {
		start := len(vals)
		var err error
		if vals, err = r.appendRow(vals); err != nil {
			return nil, err
		}
		rows[i] = vals[start:] // for its length; cut from the final array below
	}
	start := 0
	for i, row := range rows {
		end := start + len(row)
		rows[i], start = vals[start:end:end], end
	}
	return rows, nil
}

// appendRow reads a counted row of values onto dst.
func (r *Reader) appendRow(dst []value.Value) ([]value.Value, error) {
	n, err := r.Count(1)
	if err != nil {
		return nil, err
	}
	dst = slices.Grow(dst, n)
	for i := 0; i < n; i++ {
		v, err := r.Value()
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// Fields reads a field list as AppendFields writes it. A type past
// value.String or a width past MaxFieldWidth is malformed.
func (r *Reader) Fields() ([]schema.Field, error) {
	n, err := r.Count(3) // empty name + type + width
	if err != nil {
		return nil, err
	}
	fields := make([]schema.Field, n)
	for i := range fields {
		f := &fields[i]
		if f.Name, err = r.String(); err != nil {
			return nil, err
		}
		t, err := r.Byte()
		if err != nil {
			return nil, err
		}
		if f.Type = value.Type(t); f.Type > value.String {
			return nil, fmt.Errorf("%w: unknown value type %d", r.bad, t)
		}
		w, err := r.Uvarint()
		if err != nil {
			return nil, err
		}
		if w > MaxFieldWidth {
			return nil, fmt.Errorf("%w: field width %d", r.bad, w)
		}
		f.Width = int(w)
	}
	return fields, nil
}

// Bools reads bits as AppendBools writes them. A byte other than 0 or 1
// is malformed.
func (r *Reader) Bools() ([]bool, error) {
	n, err := r.Count(1)
	if err != nil {
		return nil, err
	}
	bits := make([]bool, n)
	for i := range bits {
		b, err := r.Byte()
		if err != nil {
			return nil, err
		}
		if b > 1 {
			return nil, fmt.Errorf("%w: bool byte %d", r.bad, b)
		}
		bits[i] = b == 1
	}
	return bits, nil
}

// Done reports trailing bytes as malformed input.
func (r *Reader) Done() error {
	if r.Remaining() != 0 {
		return fmt.Errorf("%w: %d trailing bytes", r.bad, r.Remaining())
	}
	return nil
}
