// Package keyenc provides order-preserving ("memcomparable") byte
// encodings of typed values and composite keys: for any two keys a, b,
// bytes.Compare(Encode(a), Encode(b)) equals the tuple comparison of a
// and b. Composite indexes (the paper mentions Hyrise's multi-column
// composite keys) key a dictionary of these encodings as strings, so one
// index structure handles any key arity.
package keyenc

import (
	"encoding/binary"
	"fmt"
	"math"

	"tierdb/internal/value"
)

// AppendValue appends the order-preserving encoding of v to dst.
//
//   - Int64: big-endian with the sign bit flipped, so negative values
//     sort before positive ones.
//   - Float64: IEEE-754 bits, sign-flipped for positives and fully
//     inverted for negatives (the standard sortable-double transform);
//     -0 encodes as +0 and every NaN as zero bytes, below -Inf.
//   - String: raw bytes with 0x00 escaped as 0x00 0xFF and terminated
//     by 0x00 0x01, so shorter strings sort before their extensions and
//     field boundaries never bleed into each other.
func AppendValue(dst []byte, v value.Value) ([]byte, error) {
	switch v.Type() {
	case value.Int64:
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], uint64(v.Int())^(1<<63))
		return append(dst, buf[:]...), nil
	case value.Float64:
		f := v.Float()
		if f == 0 {
			f = 0 // normalize -0 to +0 so equal values encode equally
		}
		bits := math.Float64bits(f)
		switch {
		case f != f:
			bits = 0 // every NaN alike and first, as value.Compare has them
		case bits&(1<<63) != 0:
			bits = ^bits // negative: invert everything
		default:
			bits |= 1 << 63 // positive: set sign bit
		}
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], bits)
		return append(dst, buf[:]...), nil
	case value.String:
		for i := 0; i < len(v.Str()); i++ {
			b := v.Str()[i]
			if b == 0x00 {
				dst = append(dst, 0x00, 0xFF)
			} else {
				dst = append(dst, b)
			}
		}
		return append(dst, 0x00, 0x01), nil
	default:
		return nil, fmt.Errorf("keyenc: unsupported type %s", v.Type())
	}
}

// Encode returns the order-preserving encoding of a composite key.
func Encode(key []value.Value) ([]byte, error) {
	var out []byte
	for _, v := range key {
		var err error
		out, err = AppendValue(out, v)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// EncodeString is Encode returning a string (usable as a dictionary key
// of type value.String).
func EncodeString(key []value.Value) (string, error) {
	b, err := Encode(key)
	if err != nil {
		return "", err
	}
	return string(b), nil
}
