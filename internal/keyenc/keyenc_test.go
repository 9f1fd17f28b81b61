package keyenc

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tierdb/internal/value"
)

func mustEncode(t *testing.T, vs ...value.Value) []byte {
	t.Helper()
	b, err := Encode(vs)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestIntOrdering(t *testing.T) {
	prop := func(a, b int64) bool {
		ea := mustEncodeQuick(value.NewInt(a))
		eb := mustEncodeQuick(value.NewInt(b))
		cmp := bytes.Compare(ea, eb)
		switch {
		case a < b:
			return cmp < 0
		case a > b:
			return cmp > 0
		default:
			return cmp == 0
		}
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func mustEncodeQuick(vs ...value.Value) []byte {
	b, err := Encode(vs)
	if err != nil {
		panic(err)
	}
	return b
}

func TestFloatOrdering(t *testing.T) {
	prop := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		ea := mustEncodeQuick(value.NewFloat(a))
		eb := mustEncodeQuick(value.NewFloat(b))
		cmp := bytes.Compare(ea, eb)
		switch {
		case a < b:
			return cmp < 0
		case a > b:
			return cmp > 0
		default:
			return cmp == 0
		}
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestFloatSpecialValues(t *testing.T) {
	ordered := []float64{math.NaN(), math.Inf(-1), -1e300, -1, -1e-300, 0, 1e-300, 1, 1e300, math.Inf(1)}
	for i := 1; i < len(ordered); i++ {
		a := mustEncodeQuick(value.NewFloat(ordered[i-1]))
		b := mustEncodeQuick(value.NewFloat(ordered[i]))
		if bytes.Compare(a, b) >= 0 {
			t.Errorf("%g should encode before %g", ordered[i-1], ordered[i])
		}
	}
	for _, f := range []float64{math.Copysign(math.NaN(), -1), math.Float64frombits(0x7ff0000000000001)} {
		if !bytes.Equal(mustEncodeQuick(value.NewFloat(f)), mustEncodeQuick(value.NewFloat(math.NaN()))) {
			t.Errorf("NaN %#x encodes unlike math.NaN()", math.Float64bits(f))
		}
	}
}

func TestStringOrdering(t *testing.T) {
	prop := func(a, b string) bool {
		ea := mustEncodeQuick(value.NewString(a))
		eb := mustEncodeQuick(value.NewString(b))
		cmp := bytes.Compare(ea, eb)
		switch {
		case a < b:
			return cmp < 0
		case a > b:
			return cmp > 0
		default:
			return cmp == 0
		}
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestStringWithZeroBytes(t *testing.T) {
	// "a\x00b" must sort between "a" and "a\x01".
	a := mustEncodeQuick(value.NewString("a"))
	azb := mustEncodeQuick(value.NewString("a\x00b"))
	a1 := mustEncodeQuick(value.NewString("a\x01"))
	if !(bytes.Compare(a, azb) < 0 && bytes.Compare(azb, a1) < 0) {
		t.Error("zero-byte escaping breaks ordering")
	}
}

func TestCompositeOrdering(t *testing.T) {
	// Tuple comparison: first field dominates; field boundaries never
	// bleed (("ab", "c") vs ("a", "bc")).
	cases := []struct {
		a, b []value.Value
		want int
	}{
		{
			[]value.Value{value.NewInt(1), value.NewString("z")},
			[]value.Value{value.NewInt(2), value.NewString("a")},
			-1,
		},
		{
			[]value.Value{value.NewString("ab"), value.NewString("c")},
			[]value.Value{value.NewString("a"), value.NewString("bc")},
			1,
		},
		{
			[]value.Value{value.NewInt(5), value.NewFloat(1.5)},
			[]value.Value{value.NewInt(5), value.NewFloat(1.5)},
			0,
		},
		{
			[]value.Value{value.NewInt(5), value.NewFloat(-2)},
			[]value.Value{value.NewInt(5), value.NewFloat(3)},
			-1,
		},
	}
	for i, c := range cases {
		got := bytes.Compare(mustEncodeQuick(c.a...), mustEncodeQuick(c.b...))
		if got != c.want {
			t.Errorf("case %d: Compare = %d, want %d", i, got, c.want)
		}
	}
}

func TestCompositeRandomTuples(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tupleCompare := func(a, b []value.Value) int {
		for i := range a {
			if c := a[i].Compare(b[i]); c != 0 {
				return c
			}
		}
		return 0
	}
	gen := func() []value.Value {
		return []value.Value{
			value.NewInt(int64(rng.Intn(5) - 2)),
			value.NewString(string(rune('a' + rng.Intn(3)))),
			value.NewFloat(float64(rng.Intn(5)) - 2),
		}
	}
	for trial := 0; trial < 2000; trial++ {
		a, b := gen(), gen()
		want := tupleCompare(a, b)
		got := bytes.Compare(mustEncodeQuick(a...), mustEncodeQuick(b...))
		if (want < 0) != (got < 0) || (want > 0) != (got > 0) {
			t.Fatalf("tuples %v vs %v: tuple compare %d, byte compare %d", a, b, want, got)
		}
	}
}

func TestEncodeString(t *testing.T) {
	s, err := EncodeString([]value.Value{value.NewInt(1)})
	if err != nil || len(s) != 8 {
		t.Errorf("EncodeString = %q, %v", s, err)
	}
}

func TestUnsupportedType(t *testing.T) {
	var zero value.Value // invalid/zero value has type Int64? verify via explicit bad type
	_ = zero
	bad := value.Value{}
	// The zero Value has Type Int64 and encodes fine; construct an
	// impossible type via the exported surface is not possible, so we
	// just confirm Encode succeeds for all public constructors.
	if _, err := Encode([]value.Value{bad}); err != nil {
		t.Errorf("zero value should encode as int64 zero: %v", err)
	}
	_ = mustEncode
}
