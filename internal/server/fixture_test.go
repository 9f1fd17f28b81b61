package server

import (
	"bufio"
	"bytes"
	"io"
	"os"
	"reflect"
	"testing"

	"tierdb/internal/value"
)

// testdata/select_request.bin and testdata/select_reply.bin hold one
// OpSelect request frame and the frame answering it, as this package's
// writers framed them. They pin the wire frame: a change to the frame
// header or to either payload fails TestSelectFrameFixtures.
var (
	fixtureRequest = Request{
		Op:    OpSelect,
		Table: "orders",
		Predicates: []Predicate{
			{Column: "region", Op: PredEq, Value: value.NewInt(3)},
			{Column: "amount", Op: PredBetween, Value: value.NewFloat(1.5), Hi: value.NewFloat(9)},
		},
		Project: []string{"id", "note"},
	}
	fixtureReply = Response{
		Status: StatusOK,
		IDs:    []uint64{3, 300},
		Rows: [][]value.Value{
			{value.NewInt(3), value.NewString("a")},
			{value.NewInt(300), value.NewString("bcd")},
		},
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
	raw, payload := readFixtureFrame(t, "select_request.bin")
	req, err := decodeRequest(payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(req, fixtureRequest) {
		t.Errorf("request decoded to %+v, want %+v", req, fixtureRequest)
	}
	var buf bytes.Buffer
	if err := WriteRequest(&buf, fixtureRequest); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), raw) {
		t.Errorf("request re-encoded to\n %x\nwant\n %x", buf.Bytes(), raw)
	}

	raw, payload = readFixtureFrame(t, "select_reply.bin")
	resp, err := DecodeResponse(OpSelect, payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resp, fixtureReply) {
		t.Errorf("reply decoded to %+v, want %+v", resp, fixtureReply)
	}
	buf.Reset()
	if err := WriteResponse(&buf, OpSelect, fixtureReply); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), raw) {
		t.Errorf("reply re-encoded to\n %x\nwant\n %x", buf.Bytes(), raw)
	}
}
