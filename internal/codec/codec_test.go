package codec

import (
	"errors"
	"reflect"
	"testing"

	"tierdb/internal/schema"
	"tierdb/internal/value"
)

var errBad = errors.New("bad input")

// decode runs read over buf and returns the reader's one error.
func decode(buf []byte, read func(r *Reader)) error {
	r := NewReader(buf, errBad)
	read(r)
	return r.Done()
}

func TestRoundTrip(t *testing.T) {
	row := []value.Value{value.NewInt(-7), value.NewFloat(2.5), value.NewString("héllo"), value.NewString("")}
	buf := AppendRow(AppendString(nil, "tbl"), row)
	r := NewReader(buf, errBad)
	if s := r.String(); s != "tbl" {
		t.Fatalf("String = %q", s)
	}
	got := r.Row()
	if len(got) != len(row) {
		t.Fatalf("Row = %v", got)
	}
	for i := range row {
		if got[i].Type() != row[i].Type() || !got[i].Equal(row[i]) {
			t.Errorf("value %d = %v, want %v", i, got[i], row[i])
		}
	}
	if err := r.Done(); err != nil {
		t.Errorf("Done after a full read: %v", err)
	}
}

// Every prefix of a valid payload, and a count no payload could hold,
// must fail with the sentinel the Reader was built with.
func TestMalformedInputReturnsTheSentinel(t *testing.T) {
	full := AppendRow(nil, []value.Value{value.NewInt(1), value.NewString("abc")})
	for n := 0; n < len(full); n++ {
		if err := decode(full[:n], func(r *Reader) { r.Row() }); !errors.Is(err, errBad) {
			t.Errorf("prefix of %d bytes: err = %v, want the sentinel", n, err)
		}
	}
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0x0f} // count 2^32-1, no elements
	if err := decode(huge, func(r *Reader) { r.Row() }); !errors.Is(err, errBad) {
		t.Errorf("oversized count: err = %v, want the sentinel", err)
	}
	if err := decode(huge[:4], func(r *Reader) { r.LenBytes() }); !errors.Is(err, errBad) {
		t.Errorf("torn length: err = %v, want the sentinel", err)
	}
	if err := decode([]byte{9}, func(r *Reader) { r.Value() }); !errors.Is(err, errBad) {
		t.Errorf("unknown value type: err = %v, want the sentinel", err)
	}
	r := NewReader(append(full, 0), errBad)
	if got := r.Row(); len(got) != 2 || r.Remaining() != 1 {
		t.Fatalf("Row = %v with %d bytes left, want 2 values and 1 byte", got, r.Remaining())
	}
	if err := r.Done(); !errors.Is(err, errBad) {
		t.Errorf("trailing byte: err = %v, want the sentinel", err)
	}
}

// The first failure sticks: reads after it return zero values, a later
// Fail does not replace it, and Done returns it rather than reporting
// the bytes the failure left unread.
func TestFirstErrorSticks(t *testing.T) {
	r := NewReader(AppendString([]byte{7}, "abc"), errBad)
	if b := r.Byte(); b != 7 {
		t.Fatalf("Byte = %d, want 7", b)
	}
	r.Fail("first %d", 1)
	r.Fail("second")
	if s, v, n := r.String(), r.Value(), r.Count(1); s != "" || v != (value.Value{}) || n != 0 {
		t.Errorf("reads after a failure = %q, %v, %d; want zero values", s, v, n)
	}
	if err := r.Done(); !errors.Is(err, errBad) || err.Error() != "bad input: first 1" {
		t.Errorf("Done = %v, want the first failure", err)
	}
	r = NewReader([]byte{1, 2}, errBad)
	r.Bytes(3)
	if err := r.Done(); err != errBad {
		t.Errorf("failed read: Done = %v, want the bare sentinel", err)
	}
}

// A field list and a layout decode to what was appended; every prefix,
// an unknown type, a width past MaxFieldWidth and a bit byte past 1
// fail with the sentinel.
func TestFieldsAndBools(t *testing.T) {
	fields := []schema.Field{{Name: "id", Type: value.Int64}, {Name: "", Type: value.String, Width: MaxFieldWidth}}
	bits := []bool{true, false, true}
	full := AppendBools(AppendFields(nil, fields), bits)
	r := NewReader(full, errBad)
	if gotFields := r.Fields(); !reflect.DeepEqual(gotFields, fields) {
		t.Fatalf("Fields = %+v; want %+v", gotFields, fields)
	}
	if gotBits := r.Bools(); !reflect.DeepEqual(gotBits, bits) {
		t.Fatalf("Bools = %v; want %v", gotBits, bits)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(full); n++ {
		if err := decode(full[:n], func(r *Reader) { r.Fields(); r.Bools() }); !errors.Is(err, errBad) {
			t.Errorf("prefix of %d bytes: err = %v, want the sentinel", n, err)
		}
	}
	for name, bad := range map[string][]byte{
		"type":  {1, 0, byte(value.String) + 1, 0},
		"width": AppendFields(nil, []schema.Field{{Type: value.String, Width: MaxFieldWidth + 1}}),
	} {
		if err := decode(bad, func(r *Reader) { r.Fields() }); !errors.Is(err, errBad) {
			t.Errorf("bad %s: err = %v, want the sentinel", name, err)
		}
	}
	if err := decode([]byte{2, 1, 2}, func(r *Reader) { r.Bools() }); !errors.Is(err, errBad) {
		t.Errorf("bit byte 2: err = %v, want the sentinel", err)
	}
}
