package wal

import (
	"bytes"
	"context"
	"io"
	"os"
	"reflect"
	"testing"

	"tierdb/internal/mvcc"
	"tierdb/internal/schema"
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
	return logSegment(t, func(l *Log) error {
		for i, ops := range [][]mvcc.RedoOp{fixtureCommit, fixtureNext} {
			ts := mvcc.Timestamp(fixtureTs + i)
			if _, err := l.AppendCommit(context.Background(), func() mvcc.Timestamp { return ts }, ops); err != nil {
				return err
			}
		}
		return nil
	})
}

// logSegment runs write against a fresh Log and returns the bytes of the
// one segment it leaves.
func logSegment(t *testing.T, write func(*Log) error) []byte {
	t.Helper()
	fs := NewMemFS()
	l, err := Open(Options{FS: fs, Dir: "wal"})
	if err != nil {
		t.Fatal(err)
	}
	if err := write(l); err != nil {
		t.Fatal(err)
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

// testdata/ddl_checkpoint.log holds one record of every kind but commit,
// as this package's append path wrote them: a table's creation (a field
// of each type, one with a width), its layout, a single-column and a
// composite index, then a checkpoint's begin and end. It pins the DDL
// and checkpoint payloads: a change to how a field list, a layout or a
// column list is encoded fails TestDDLSegmentFixture.
var fixtureDDL = []Record{
	{Kind: kindCreateTable, Table: "orders", Fields: []schema.Field{
		{Name: "id", Type: value.Int64},
		{Name: "amount", Type: value.Float64},
		{Name: "note", Type: value.String, Width: 300},
	}},
	{Kind: kindLayout, Table: "orders", Layout: []bool{true, false, true}},
	{Kind: kindIndex, Table: "orders", Cols: []int{0}},
	{Kind: kindIndex, Table: "orders", Cols: []int{2, 0}},
	{Kind: kindCheckpointBegin, Ts: 300},
	{Kind: kindCheckpointEnd, Ts: 300},
}

// TestDDLSegmentFixture decodes the checked-in DDL segment to the pinned
// records, then appends them again through a Log and requires the
// fixture's bytes back exactly.
func TestDDLSegmentFixture(t *testing.T) {
	data, err := os.ReadFile("testdata/ddl_checkpoint.log")
	if err != nil {
		t.Fatal(err)
	}
	recs, tornAt, err := decodeSegment(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recs, fixtureDDL) || tornAt != len(data) {
		t.Errorf("decoded %+v (clean to %d of %d bytes), want %+v", recs, tornAt, len(data), fixtureDDL)
	}
	got := logSegment(t, func(l *Log) error {
		for _, rec := range fixtureDDL {
			var err error
			switch rec.Kind {
			case kindCreateTable:
				err = l.AppendCreateTable(rec.Table, rec.Fields)
			case kindLayout:
				err = l.AppendLayout(rec.Table, rec.Layout)
			case kindIndex:
				err = l.AppendIndex(rec.Table, rec.Cols)
			case kindCheckpointBegin:
				err = l.AppendCheckpointBegin(mvcc.Timestamp(rec.Ts))
			case kindCheckpointEnd:
				err = l.EndCheckpoint(mvcc.Timestamp(rec.Ts))
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
	if !bytes.Equal(got, data) {
		t.Errorf("re-encoded segment\n %x\nwant the fixture\n %x", got, data)
	}
}
