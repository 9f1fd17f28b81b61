package codec

import (
	"errors"
	"reflect"
	"testing"

	"tierdb/internal/schema"
	"tierdb/internal/value"
)

var errBad = errors.New("bad input")

func TestRoundTrip(t *testing.T) {
	row := []value.Value{value.NewInt(-7), value.NewFloat(2.5), value.NewString("héllo"), value.NewString("")}
	buf := AppendRow(AppendString(nil, "tbl"), row)
	r := NewReader(buf, errBad)
	if s, err := r.String(); err != nil || s != "tbl" {
		t.Fatalf("String = %q, %v", s, err)
	}
	got, err := r.Row()
	if err != nil || len(got) != len(row) {
		t.Fatalf("Row = %v, %v", got, err)
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
		if _, err := NewReader(full[:n], errBad).Row(); !errors.Is(err, errBad) {
			t.Errorf("prefix of %d bytes: err = %v, want the sentinel", n, err)
		}
	}
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0x0f} // count 2^32-1, no elements
	if _, err := NewReader(huge, errBad).Row(); !errors.Is(err, errBad) {
		t.Errorf("oversized count: err = %v, want the sentinel", err)
	}
	if _, err := NewReader(huge[:4], errBad).LenBytes(); !errors.Is(err, errBad) {
		t.Errorf("torn length: err = %v, want the sentinel", err)
	}
	if _, err := NewReader([]byte{9}, errBad).Value(); !errors.Is(err, errBad) {
		t.Errorf("unknown value type: err = %v, want the sentinel", err)
	}
	r := NewReader(append(full, 0), errBad)
	if _, err := r.Row(); err != nil {
		t.Fatal(err)
	}
	if err := r.Done(); !errors.Is(err, errBad) {
		t.Errorf("trailing byte: err = %v, want the sentinel", err)
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
	gotFields, err := r.Fields()
	if err != nil || !reflect.DeepEqual(gotFields, fields) {
		t.Fatalf("Fields = %+v, %v; want %+v", gotFields, err, fields)
	}
	if gotBits, err := r.Bools(); err != nil || !reflect.DeepEqual(gotBits, bits) {
		t.Fatalf("Bools = %v, %v; want %v", gotBits, err, bits)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(full); n++ {
		r := NewReader(full[:n], errBad)
		_, err := r.Fields()
		if err == nil {
			_, err = r.Bools()
		}
		if !errors.Is(err, errBad) {
			t.Errorf("prefix of %d bytes: err = %v, want the sentinel", n, err)
		}
	}
	for name, bad := range map[string][]byte{
		"type":  {1, 0, byte(value.String) + 1, 0},
		"width": AppendFields(nil, []schema.Field{{Type: value.String, Width: MaxFieldWidth + 1}}),
	} {
		if _, err := NewReader(bad, errBad).Fields(); !errors.Is(err, errBad) {
			t.Errorf("bad %s: err = %v, want the sentinel", name, err)
		}
	}
	if _, err := NewReader([]byte{2, 1, 2}, errBad).Bools(); !errors.Is(err, errBad) {
		t.Errorf("bit byte 2: err = %v, want the sentinel", err)
	}
}
