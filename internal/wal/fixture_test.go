package wal

import (
	"bytes"
	"context"
	"io"
	"os"
	"reflect"
	"testing"

	"tierdb/internal/mvcc"
	"tierdb/internal/value"
)

// The segment in testdata/commit_torn.log holds one commit record
// (fixtureCommit at fixtureTs) followed by a torn tail: the first
// fixtureTail bytes of the frame of a second commit (fixtureNext at
// fixtureTs+1). Its bytes were written by this package's append path
// and pin the on-disk frame: a change to the frame header or to the
// commit payload fails TestSegmentFixture.
const (
	fixtureTs     = 9
	fixtureTornAt = 72
	fixtureTail   = 12
)

var (
	fixtureCommit = []mvcc.RedoOp{
		{Table: "orders", Row: []value.Value{value.NewInt(42), value.NewFloat(2.5), value.NewString("widget")}},
		{Table: "orders", Delete: true, Row: []value.Value{value.NewInt(7), value.NewFloat(-1), value.NewString("")}},
	}
	fixtureNext = []mvcc.RedoOp{
		{Table: "orders", Row: []value.Value{value.NewInt(43), value.NewFloat(0.5), value.NewString("gadget")}},
	}
)

// fixtureSegment appends the fixture's two commits through a Log and
// returns the segment's bytes.
func fixtureSegment(t *testing.T) []byte {
	t.Helper()
	fs := NewMemFS()
	l, err := Open(Options{FS: fs, Dir: "wal"})
	if err != nil {
		t.Fatal(err)
	}
	for i, ops := range [][]mvcc.RedoOp{fixtureCommit, fixtureNext} {
		ts := mvcc.Timestamp(fixtureTs + i)
		if _, err := l.AppendCommit(context.Background(), func() mvcc.Timestamp { return ts }, ops); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := fs.ReadDir("wal")
	if err != nil || len(names) != 1 {
		t.Fatalf("segments %v, %v; want one", names, err)
	}
	f, err := fs.Open("wal/" + names[0])
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSegmentFixture decodes the checked-in segment to the pinned
// commit and torn-tail offset, then re-encodes the pinned commits and
// requires the fixture's bytes back exactly.
func TestSegmentFixture(t *testing.T) {
	data, err := os.ReadFile("testdata/commit_torn.log")
	if err != nil {
		t.Fatal(err)
	}
	recs, tornAt, err := decodeSegment(data)
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{{Kind: kindCommit, Ts: fixtureTs, Ops: fixtureCommit}}
	if !reflect.DeepEqual(recs, want) {
		t.Errorf("decoded %+v, want %+v", recs, want)
	}
	if tornAt != fixtureTornAt || len(data) != fixtureTornAt+fixtureTail {
		t.Errorf("torn at %d of %d bytes, want %d of %d", tornAt, len(data), fixtureTornAt, fixtureTornAt+fixtureTail)
	}
	full := fixtureSegment(t)
	if !bytes.Equal(full[:min(len(data), len(full))], data) {
		t.Errorf("re-encoded segment\n %x\ndoes not start with the fixture\n %x", full, data)
	}
}
