package codec

import (
	"errors"
	"testing"

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
