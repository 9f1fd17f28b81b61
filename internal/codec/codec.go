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
// A Reader keeps its first error. A failed read, or a Fail call for a
// value the caller rejects, records the sentinel (wrapped with Fail's
// message), and the reader drops the rest of its input, so every later
// read returns a zero value. A decoder therefore reads straight
// through and has one error exit: Done, which returns that first error
// or, failing none, reports trailing bytes.
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

// Reader is a bounds-checked cursor over a decoded payload. It keeps
// its first error: a failed read, or a Fail call, records it and drops
// the rest of the input, so every later read fails its own bounds check
// and returns a zero value. A decoder reads on regardless and checks
// once, with Done.
type Reader struct {
	buf []byte
	pos int
	bad error // the caller's sentinel
	err error // the first failure
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

// Fail records the sentinel, wrapped with the formatted message unless
// format is empty, when it is the reader's first failure, and drops the
// rest of the input.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = r.bad
		if format != "" {
			r.err = fmt.Errorf("%w: %s", r.bad, fmt.Sprintf(format, args...))
		}
	}
	r.pos = len(r.buf)
}

// Done returns the reader's first error or, failing none, reports
// trailing bytes as malformed input.
func (r *Reader) Done() error {
	if r.err == nil && r.Remaining() != 0 {
		r.Fail("%d trailing bytes", r.Remaining())
	}
	return r.err
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.Remaining() < 1 {
		r.Fail("")
		return 0
	}
	r.pos++
	return r.buf[r.pos-1]
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	x, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		r.Fail("")
		return 0
	}
	r.pos += n
	return x
}

// Count reads a uvarint element count and rejects it when even at min
// bytes per element it cannot fit in the remaining payload — the bound
// that keeps corrupt or hostile counts from driving huge allocations.
func (r *Reader) Count(minBytesPerElem int) int {
	n := r.Uvarint()
	if n > uint64(r.Remaining()/minBytesPerElem) {
		r.Fail("")
		return 0
	}
	return int(n)
}

// Bytes reads n bytes, aliasing the payload.
func (r *Reader) Bytes(n int) []byte {
	if n < 0 || r.Remaining() < n {
		r.Fail("")
		return nil
	}
	r.pos += n
	return r.buf[r.pos-n : r.pos]
}

// LenBytes reads a uvarint length and that many bytes, aliasing the
// payload.
func (r *Reader) LenBytes() []byte {
	n := r.Uvarint()
	if n > uint64(r.Remaining()) {
		r.Fail("")
		return nil
	}
	return r.Bytes(int(n))
}

// String reads a uvarint-prefixed string.
func (r *Reader) String() string {
	b := r.LenBytes()
	if !r.share || len(b) == 0 {
		return string(b)
	}
	if r.str == "" {
		r.str = string(r.buf)
	}
	return r.str[r.pos-len(b) : r.pos]
}

// fixed reads 8 bytes little-endian.
func (r *Reader) fixed() uint64 {
	if b := r.Bytes(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// Value reads one self-describing value.
func (r *Reader) Value() value.Value {
	switch value.Type(r.Byte()) {
	case value.Int64:
		return value.NewInt(int64(r.fixed()))
	case value.Float64:
		return value.NewFloat(math.Float64frombits(r.fixed()))
	case value.String:
		return value.NewString(r.String())
	}
	r.Fail("")
	return value.Value{}
}

// Row reads a counted row of values.
func (r *Reader) Row() []value.Value { return r.appendRow(nil) }

// Rows reads n counted rows into one backing array, row i a capped view
// of it, so appending to one row cannot overwrite the next. The array is
// sized from the first row's width, which the rows of a reply or a bulk
// load share, and never beyond what the remaining payload can hold at
// two bytes a value, the shortest encoding (a type byte and an empty
// string's length).
func (r *Reader) Rows(n int) [][]value.Value {
	rows := make([][]value.Value, n)
	var vals []value.Value
	if width, k := binary.Uvarint(r.buf[r.pos:]); k > 0 {
		most := uint64(r.Remaining() / 2)
		vals = make([]value.Value, 0, min(min(width, most)*uint64(n), most))
	}
	for i := range rows {
		start := len(vals)
		vals = r.appendRow(vals)
		rows[i] = vals[start:] // for its length; cut from the final array below
	}
	start := 0
	for i, row := range rows {
		end := start + len(row)
		rows[i], start = vals[start:end:end], end
	}
	return rows
}

// appendRow reads a counted row of values onto dst.
func (r *Reader) appendRow(dst []value.Value) []value.Value {
	n := r.Count(1)
	dst = slices.Grow(dst, n)
	for i := 0; i < n; i++ {
		dst = append(dst, r.Value())
	}
	return dst
}

// Fields reads a field list as AppendFields writes it. A type past
// value.String or a width past MaxFieldWidth is malformed.
func (r *Reader) Fields() []schema.Field {
	fields := make([]schema.Field, r.Count(3)) // empty name + type + width
	for i := range fields {
		f := &fields[i]
		f.Name, f.Type = r.String(), value.Type(r.Byte())
		if f.Type > value.String {
			r.Fail("unknown value type %d", f.Type)
		}
		w := r.Uvarint()
		if w > MaxFieldWidth {
			r.Fail("field width %d", w)
		}
		f.Width = int(w)
	}
	return fields
}

// Bools reads bits as AppendBools writes them. A byte other than 0 or 1
// is malformed.
func (r *Reader) Bools() []bool {
	bits := make([]bool, r.Count(1))
	for i := range bits {
		b := r.Byte()
		if b > 1 {
			r.Fail("bool byte %d", b)
		}
		bits[i] = b == 1
	}
	return bits
}
