package persist

import (
	"bufio"
	"bytes"
	"errors"
	"testing"

	"tierdb/internal/dict"
	"tierdb/internal/storage"
	"tierdb/internal/table"
	"tierdb/internal/value"
)

// craft describes a TIERDB03 image of table "c": an Int64 MRC "a" and
// an Int64 SSCG column "b", each field of which a case may corrupt.
type craft struct {
	rows      int
	dict      []int64  // a's dictionary
	width     int      // a's code width
	words     []uint64 // a's packed codes
	buckets   []int    // each histogram's bucket counts
	hidden    []int
	pages     int
	deltaRows int // the delta batch's row count
	deltaVals int // the values each delta column holds
}

// validCraft is three rows, a = 10, 20, 30 (codes 0, 1, 2 in two bits).
func validCraft() craft {
	return craft{rows: 3, dict: []int64{10, 20, 30}, width: 2, words: []uint64{0 | 1<<2 | 2<<4}, buckets: []int{3}, pages: 1}
}

func (c craft) image() []byte {
	var buf bytes.Buffer
	e := encoder{bufio.NewWriter(&buf)}
	e.Write(magicV3)
	e.uvarint(5)
	e.string("c")
	e.uvarint(2)
	for _, name := range []string{"a", "b"} {
		e.string(name)
		e.WriteByte(byte(value.Int64))
		e.uvarint(0)
	}
	e.Write([]byte{1, 0})
	e.uvarint(uint64(c.rows))
	e.values(dict.Values{Type: value.Int64, Ints: c.dict})
	e.uvarint(uint64(c.width))
	e.uvarint(uint64(len(c.words)))
	for _, w := range c.words {
		e.word(w)
	}
	for range 2 {
		e.ints(c.buckets)
		e.uvarint(3)
		e.values(dict.Values{Type: value.Int64, Ints: make([]int64, len(c.buckets)+1)})
	}
	e.ints(c.hidden)
	e.uvarint(uint64(c.pages))
	for range c.pages {
		e.Write(make([]byte, storage.PageSize))
	}
	e.uvarint(uint64(c.deltaRows))
	for range 2 {
		e.values(dict.Values{Type: value.Int64, Ints: make([]int64, c.deltaVals)})
	}
	e.ints(nil)
	e.uvarint(0)
	e.Flush()
	return buf.Bytes()
}

// TestLoadRejectsCorruptTIERDB03 corrupts one array of a valid image at
// a time: each must fail the load as ErrBadSnapshot.
func TestLoadRejectsCorruptTIERDB03(t *testing.T) {
	tbl, _, err := LoadAt(bytes.NewReader(validCraft().image()), table.Options{})
	if err != nil {
		t.Fatalf("valid image: %v", err)
	}
	for row, want := range []int64{10, 20, 30} {
		if got, err := tbl.GetValue(uint64(row), 0); err != nil || got.Int() != want {
			t.Fatalf("row %d a = %v (%v), want %d", row, got, err, want)
		}
	}
	cases := map[string]func(c *craft){
		"code width over 32":         func(c *craft) { c.width = 33 },
		"code width 0":               func(c *craft) { c.width = 0 },
		"word count for more rows":   func(c *craft) { c.words = append(c.words, 0) },
		"word count for fewer rows":  func(c *craft) { c.rows, c.buckets = 40, []int{40} },
		"code past the dictionary":   func(c *craft) { c.words = []uint64{0 | 1<<2 | 3<<4} },
		"dictionary descending":      func(c *craft) { c.dict = []int64{10, 30, 20} },
		"dictionary repeats":         func(c *craft) { c.dict = []int64{10, 20, 20} },
		"page count over":            func(c *craft) { c.pages = 2 },
		"page count under":           func(c *craft) { c.pages = 0 },
		"histogram buckets over 64":  func(c *craft) { c.buckets = make([]int, 65) },
		"histogram counts short":     func(c *craft) { c.buckets = []int{1, 1} },
		"histogram for no rows":      func(c *craft) { c.rows, c.words, c.pages = 0, nil, 0 },
		"hidden row out of range":    func(c *craft) { c.hidden = []int{3} },
		"hidden rows descending":     func(c *craft) { c.hidden = []int{2, 1} },
		"hidden row repeated":        func(c *craft) { c.hidden = []int{1, 1} },
		"more hidden rows than rows": func(c *craft) { c.hidden = []int{0, 1, 2, 2} },
		"delta batch short":          func(c *craft) { c.deltaRows = 1 },
	}
	for name, corrupt := range cases {
		c := validCraft()
		corrupt(&c)
		if _, _, err := LoadAt(bytes.NewReader(c.image()), table.Options{}); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: err = %v, want ErrBadSnapshot", name, err)
		}
	}
}
