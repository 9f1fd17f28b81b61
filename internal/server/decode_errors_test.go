package server

import (
	"bufio"
	"errors"
	"net"
	"testing"
	"time"

	"tierdb/internal/codec"
	"tierdb/internal/schema"
	"tierdb/internal/value"
)

// TestDecodeErrorText pins the error each malformed request payload
// decodes to, one payload per failure: it is ErrProtocol, and its text
// is the message a live session answers with StatusBadRequest.
func TestDecodeErrorText(t *testing.T) {
	wideField := codec.AppendFields([]byte{OpCreateTable, 1, 't'}, []schema.Field{{Type: value.String, Width: codec.MaxFieldWidth + 1}})
	cases := []struct {
		name    string
		payload []byte
		want    string
	}{
		{"unknown opcode", []byte{250}, "server: protocol error: unknown opcode 250"},
		{"unknown predicate op", []byte{OpSelect, 1, 't', 1, 1, 'c', 9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, "server: protocol error: unknown predicate op 9"},
		{"unknown adaptive subcommand", []byte{OpAdaptive, 3}, "server: protocol error: unknown adaptive subcommand 3"},
		{"zero trace id", []byte{OpTraced, 0, 5, OpPing}, "server: protocol error: zero trace id in header"},
		{"nested trace header", []byte{OpTraced, 1, 2, OpTraced, 3, 4, OpPing}, "server: protocol error: nested trace header"},
		{"field type", []byte{OpCreateTable, 1, 't', 1, 0, byte(value.String) + 1, 0}, "server: protocol error: unknown value type 3"},
		{"field width", wideField, "server: protocol error: field width 16777217"},
		{"bool byte", []byte{OpApplyLayout, 1, 't', 2, 1, 2}, "server: protocol error: bool byte 2"},
		{"trailing bytes", []byte{OpPing, 0, 0}, "server: protocol error: 2 trailing bytes"},
		{"torn count", []byte{OpBulkLoad, 1, 't', 0xff}, "server: protocol error"},
		{"oversized count", []byte{OpBulkLoad, 1, 't', 2, 0}, "server: protocol error"},
		{"unknown value type", []byte{OpInsert, 1, 't', 1, 9}, "server: protocol error"},
		{"empty payload", nil, "server: protocol error"},
	}
	for _, tc := range cases {
		_, err := decodeRequest(tc.payload, nil)
		if !errors.Is(err, ErrProtocol) || err.Error() != tc.want {
			t.Errorf("%s: err = %v, want ErrProtocol reading %q", tc.name, err, tc.want)
		}
	}

	srv := New(struct{ Engine }{}, Config{}) // no payload here reaches the engine
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Shutdown()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(nc)
	for _, tc := range cases {
		if _, err := nc.Write(appendFrame(nil, tc.payload)); err != nil {
			t.Fatal(err)
		}
		reply, err := ReadFrame(br)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := DecodeResponse(OpPing, reply)
		if err != nil || resp.Status != StatusBadRequest || resp.Msg != tc.want {
			t.Errorf("%s: reply %+v, %v; want StatusBadRequest reading %q", tc.name, resp, err, tc.want)
		}
	}

	for _, tc := range []struct {
		name    string
		op      byte
		payload []byte
		want    string
	}{
		{"unknown status", OpPing, []byte{StatusDraining + 1}, "server: protocol error: unknown status 5"},
		{"trailing bytes", OpRows, []byte{StatusOK, 7, 0}, "server: protocol error: 1 trailing bytes"},
		{"torn count", OpTables, []byte{StatusOK, 0xff}, "server: protocol error"},
		{"unknown value type", OpSelect, []byte{StatusOK, 0, 1, 1, 9}, "server: protocol error"},
	} {
		if _, err := DecodeResponse(tc.op, tc.payload); !errors.Is(err, ErrProtocol) || err.Error() != tc.want {
			t.Errorf("reply %s: err = %v, want ErrProtocol reading %q", tc.name, err, tc.want)
		}
	}
}
