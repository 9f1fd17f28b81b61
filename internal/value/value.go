// Package value defines the runtime value representation and column
// types shared by the storage engine: 64-bit integers, 64-bit floats and
// strings. SSCGs store values uncompressed in fixed-width row slots
// (strings are padded to a per-column width), which is what gives the
// paper's row-oriented column groups their single-page tuple
// reconstruction property.
package value

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
)

// Type enumerates the supported column types.
type Type uint8

const (
	// Int64 is a signed 64-bit integer column.
	Int64 Type = iota
	// Float64 is a 64-bit IEEE float column.
	Float64
	// String is a variable-length string column; in fixed-width
	// contexts (SSCG rows) it is padded/truncated to the column width.
	String
)

// String returns the type name.
func (t Type) String() string {
	switch t {
	case Int64:
		return "int64"
	case Float64:
		return "float64"
	case String:
		return "string"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Value is a dynamically typed cell value.
type Value struct {
	typ Type
	i   int64
	f   float64
	s   string
}

// NewInt returns an Int64 value.
func NewInt(v int64) Value { return Value{typ: Int64, i: v} }

// NewFloat returns a Float64 value.
func NewFloat(v float64) Value { return Value{typ: Float64, f: v} }

// NewString returns a String value.
func NewString(v string) Value { return Value{typ: String, s: v} }

// Type returns the value's type.
func (v Value) Type() Type { return v.typ }

// Int returns the integer payload; valid only for Int64 values.
func (v Value) Int() int64 { return v.i }

// Float returns the float payload; valid only for Float64 values.
func (v Value) Float() float64 { return v.f }

// Str returns the string payload; valid only for String values.
func (v Value) Str() string { return v.s }

// String renders the value for diagnostics.
func (v Value) String() string {
	switch v.typ {
	case Int64:
		return fmt.Sprintf("%d", v.i)
	case Float64:
		return fmt.Sprintf("%g", v.f)
	case String:
		return v.s
	default:
		return "<invalid>"
	}
}

// Compare orders v relative to o: -1, 0 or +1. Floats order as
// cmp.Compare orders them — NaN first and equal only to NaN, -0 equal
// to +0 — the one total order dictionaries, indexes and predicates
// share. Comparing values of different types panics; the engine's
// schema layer guarantees homogeneous comparisons.
func (v Value) Compare(o Value) int {
	if v.typ != o.typ {
		panic(fmt.Sprintf("value: comparing %s with %s", v.typ, o.typ))
	}
	switch v.typ {
	case Int64:
		return cmp.Compare(v.i, o.i)
	case Float64:
		return cmp.Compare(v.f, o.f)
	default:
		return strings.Compare(v.s, o.s)
	}
}

// Equal reports whether v and o are the same typed value.
func (v Value) Equal(o Value) bool {
	return v.typ == o.typ && v.Compare(o) == 0
}

// FixedWidth returns the number of bytes the value type occupies in a
// fixed-width row slot; strWidth is the configured width for strings.
func FixedWidth(t Type, strWidth int) int {
	switch t {
	case Int64, Float64:
		return 8
	default:
		return strWidth
	}
}

// EncodeFixed writes v into buf using the fixed-width layout; buf must
// be exactly FixedWidth bytes. Strings are right-padded with zero bytes
// and silently truncated at the slot width, as in the fixed CHAR columns
// of the enterprise schemas the paper analyzes.
func EncodeFixed(v Value, buf []byte) error {
	switch v.typ {
	case Int64:
		if len(buf) != 8 {
			return fmt.Errorf("value: int64 slot is %d bytes, want 8", len(buf))
		}
		binary.LittleEndian.PutUint64(buf, uint64(v.i))
	case Float64:
		if len(buf) != 8 {
			return fmt.Errorf("value: float64 slot is %d bytes, want 8", len(buf))
		}
		binary.LittleEndian.PutUint64(buf, math.Float64bits(v.f))
	case String:
		n := copy(buf, v.s)
		for i := n; i < len(buf); i++ {
			buf[i] = 0
		}
	default:
		return fmt.Errorf("value: cannot encode type %s", v.typ)
	}
	return nil
}

// DecodeFixed reads a value of type t from a fixed-width slot.
func DecodeFixed(t Type, buf []byte) (Value, error) {
	switch t {
	case Int64:
		if len(buf) != 8 {
			return Value{}, fmt.Errorf("value: int64 slot is %d bytes, want 8", len(buf))
		}
		return NewInt(int64(binary.LittleEndian.Uint64(buf))), nil
	case Float64:
		if len(buf) != 8 {
			return Value{}, fmt.Errorf("value: float64 slot is %d bytes, want 8", len(buf))
		}
		return NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(buf))), nil
	case String:
		end := len(buf)
		for end > 0 && buf[end-1] == 0 {
			end--
		}
		return NewString(string(buf[:end])), nil
	default:
		return Value{}, fmt.Errorf("value: cannot decode type %s", t)
	}
}
