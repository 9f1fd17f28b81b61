package server

import (
	"bufio"
	"bytes"
	"io"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"tierdb/internal/schema"
	"tierdb/internal/value"
)

// Each file in testdata holds one frame as this package's writers framed
// it: a request of every opcode, one request in the OpTraced envelope,
// and a reply of every shape — rows, empty, a count, names and an
// error. They pin the wire: a change to the frame header or to any
// payload fails TestSelectFrameFixtures.
var (
	fixtureRequests = []struct {
		file string
		req  Request
	}{
		{"ping_request.bin", Request{Op: OpPing}},
		{"create_table_request.bin", Request{Op: OpCreateTable, Table: "orders", Fields: []schema.Field{
			{Name: "id", Type: value.Int64},
			{Name: "amount", Type: value.Float64},
			{Name: "note", Type: value.String, Width: 300},
		}}},
		{"insert_request.bin", Request{Op: OpInsert, Table: "orders", Row: []value.Value{
			value.NewInt(-7), value.NewFloat(math.Copysign(0, -1)), value.NewString(""),
		}}},
		{"delete_request.bin", Request{Op: OpDelete, Table: "orders", RowID: 1 << 40}},
		{"update_request.bin", Request{Op: OpUpdate, Table: "orders", RowID: 12, Row: []value.Value{
			value.NewInt(12), value.NewFloat(2.5), value.NewString("moved"),
		}}},
		{"bulk_load_request.bin", Request{Op: OpBulkLoad, Table: "orders", Rows: [][]value.Value{
			{value.NewInt(1), value.NewFloat(math.Inf(1)), value.NewString("a")},
			{value.NewInt(2), value.NewFloat(-1e300), value.NewString("bb")},
		}}},
		{"select_request.bin", Request{
			Op:    OpSelect,
			Table: "orders",
			Predicates: []Predicate{
				{Column: "region", Op: PredEq, Value: value.NewInt(3)},
				{Column: "amount", Op: PredBetween, Value: value.NewFloat(1.5), Hi: value.NewFloat(9)},
			},
			Project: []string{"id", "note"},
		}},
		{"checkpoint_request.bin", Request{Op: OpCheckpoint}},
		{"rows_request.bin", Request{Op: OpRows, Table: "orders"}},
		{"tables_request.bin", Request{Op: OpTables}},
		{"apply_layout_request.bin", Request{Op: OpApplyLayout, Table: "orders", Layout: []bool{true, false, true}}},
		{"adaptive_request.bin", Request{Op: OpAdaptive, Sub: AdaptiveDisable}},
		{"traced_request.bin", Request{Op: OpRows, Table: "orders", TraceID: 0x0123456789abcdef, SpanID: 0xfedcba98}},
	}
	fixtureReplies = []struct {
		file string
		op   byte
		resp Response
	}{
		{"select_reply.bin", OpSelect, Response{
			Status: StatusOK,
			IDs:    []uint64{3, 300},
			Rows: [][]value.Value{
				{value.NewInt(3), value.NewString("a")},
				{value.NewInt(300), value.NewString("bcd")},
			},
		}},
		{"empty_reply.bin", OpInsert, Response{Status: StatusOK}},
		{"count_reply.bin", OpRows, Response{Status: StatusOK, Count: 300000}},
		{"names_reply.bin", OpTables, Response{Status: StatusOK, Names: []string{"orders", "stock"}}},
		{"error_reply.bin", OpSelect, Response{Status: StatusEngineErr, Msg: `tierdb: table "x" not found`}},
	}
)

// readFixtureFrame reads the one frame the named fixture holds and
// returns the fixture's bytes and the frame's payload.
func readFixtureFrame(t *testing.T, name string) (raw, payload []byte) {
	t.Helper()
	raw, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(bytes.NewReader(raw))
	if payload, err = ReadFrame(br); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if _, err := ReadFrame(br); err != io.EOF {
		t.Fatalf("%s: after the frame: %v, want io.EOF", name, err)
	}
	return raw, payload
}

// TestSelectFrameFixtures decodes each checked-in frame to its pinned
// value, re-encodes the value and requires the fixture's bytes back.
func TestSelectFrameFixtures(t *testing.T) {
	for _, c := range fixtureRequests {
		raw, payload := readFixtureFrame(t, c.file)
		req, err := decodeRequest(payload, nil)
		if err != nil {
			t.Errorf("%s: %v", c.file, err)
		} else if !reflect.DeepEqual(req, c.req) {
			t.Errorf("%s: decoded to %+v, want %+v", c.file, req, c.req)
		}
		var buf bytes.Buffer
		if err := WriteRequest(&buf, c.req); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), raw) {
			t.Errorf("%s: re-encoded to\n %x\nwant\n %x", c.file, buf.Bytes(), raw)
		}
	}
	for _, c := range fixtureReplies {
		raw, payload := readFixtureFrame(t, c.file)
		resp, err := DecodeResponse(c.op, payload)
		if err != nil {
			t.Errorf("%s: %v", c.file, err)
		} else if !reflect.DeepEqual(resp, c.resp) {
			t.Errorf("%s: decoded to %+v, want %+v", c.file, resp, c.resp)
		}
		var buf bytes.Buffer
		if err := WriteResponse(&buf, c.op, c.resp); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), raw) {
			t.Errorf("%s: re-encoded to\n %x\nwant\n %x", c.file, buf.Bytes(), raw)
		}
	}
}

// TestFixturesCoverEveryOpcode keeps the request table complete: every
// opcode the decoder accepts, and the envelope, has a fixture.
func TestFixturesCoverEveryOpcode(t *testing.T) {
	seen := map[byte]bool{}
	for _, c := range fixtureRequests {
		seen[c.req.Op] = true
		if c.req.TraceID != 0 {
			seen[OpTraced] = true
		}
	}
	for op := byte(0); op < 32; op++ {
		_, err := decodeRequest([]byte{op}, nil)
		known := err == nil || !strings.Contains(err.Error(), "unknown opcode")
		if known && op != OpTraced && !seen[op] {
			t.Errorf("opcode %d has no fixture", op)
		}
	}
	if !seen[OpTraced] {
		t.Error("no fixture in the OpTraced envelope")
	}
}
