package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"runtime"
	"testing"
	"time"

	"tierdb/internal/codec"
	"tierdb/internal/schema"
	"tierdb/internal/value"
)

// appendFrame frames payload into buf: length, CRC, payload.
func appendFrame(buf, payload []byte) []byte {
	return append(codec.AppendFrameHeader(buf, payload), payload...)
}

// sampleRequests covers every opcode with a representative body.
func sampleRequests() []Request {
	return []Request{
		{Op: OpPing},
		{Op: OpCheckpoint},
		{Op: OpTables},
		{Op: OpCreateTable, Table: "orders", Fields: []schema.Field{
			{Name: "id", Type: value.Int64},
			{Name: "amount", Type: value.Float64},
			{Name: "note", Type: value.String, Width: 24},
		}},
		{Op: OpInsert, Table: "orders", Row: []value.Value{
			value.NewInt(7), value.NewFloat(3.25), value.NewString("héllo"),
		}},
		{Op: OpDelete, Table: "orders", RowID: 99},
		{Op: OpUpdate, Table: "orders", RowID: 12, Row: []value.Value{
			value.NewInt(8), value.NewFloat(-1), value.NewString(""),
		}},
		{Op: OpBulkLoad, Table: "orders", Rows: [][]value.Value{
			{value.NewInt(1)}, {value.NewInt(2)}, {},
		}},
		{Op: OpSelect, Table: "orders",
			Predicates: []Predicate{
				{Column: "id", Op: PredEq, Value: value.NewInt(7)},
				{Column: "amount", Op: PredBetween, Value: value.NewFloat(0), Hi: value.NewFloat(10)},
			},
			Project: []string{"id", "note"}},
		{Op: OpSelect, Table: "orders"},
		{Op: OpRows, Table: "orders"},
		{Op: OpApplyLayout, Table: "orders", Layout: []bool{true, false, true}},
		{Op: OpAdaptive, Sub: AdaptiveEnable},
		{Op: OpAdaptive, Sub: AdaptiveDisable},
	}
}

// retiredPayloads are CRC-valid request payloads the wire no longer
// accepts, each of which a session must answer with StatusBadRequest and
// survive: the report opcodes 9 (stats), 12 (advise) and 16 (explain),
// which moved to HTTP, the adaptive status subcommand, and a Select
// carrying the traced byte it used to end with.
func retiredPayloads() []struct {
	name    string
	payload []byte
} {
	sel := encodeRequest(nil, Request{Op: OpSelect, Table: "t", Project: []string{"id"}})
	return []struct {
		name    string
		payload []byte
	}{
		{"stats", []byte{9}},
		{"advise", codec.AppendString(codec.AppendString([]byte{12}, "t"), "{}")},
		{"explain", append(codec.AppendString([]byte{16}, "t"), 0, 0, 1)},
		{"adaptive status", []byte{OpAdaptive, 0}},
		{"traced select", append(sel, 1)},
	}
}

// TestRequestRoundtrip encodes every opcode through a frame and back.
func TestRequestRoundtrip(t *testing.T) {
	for _, req := range sampleRequests() {
		var stream bytes.Buffer
		if err := WriteRequest(&stream, req); err != nil {
			t.Fatalf("op %d: write: %v", req.Op, err)
		}
		payload, err := ReadFrame(bufio.NewReader(&stream))
		if err != nil {
			t.Fatalf("op %d: read frame: %v", req.Op, err)
		}
		got, err := decodeRequest(payload, nil)
		if err != nil {
			t.Fatalf("op %d: decode: %v", req.Op, err)
		}
		if !reflect.DeepEqual(normalizeReq(req), normalizeReq(got)) {
			t.Errorf("op %d roundtrip mismatch:\n sent %+v\n got  %+v", req.Op, req, got)
		}
	}
}

// normalizeReq maps nil and empty slices together (the codec does not
// distinguish them).
func normalizeReq(r Request) Request {
	if len(r.Fields) == 0 {
		r.Fields = nil
	}
	if len(r.Row) == 0 {
		r.Row = nil
	}
	if len(r.Rows) == 0 {
		r.Rows = nil
	}
	for i := range r.Rows {
		if len(r.Rows[i]) == 0 {
			r.Rows[i] = nil
		}
	}
	if len(r.Predicates) == 0 {
		r.Predicates = nil
	}
	if len(r.Project) == 0 {
		r.Project = nil
	}
	if len(r.Layout) == 0 {
		r.Layout = nil
	}
	return r
}

// TestResponseRoundtrip encodes representative responses for every
// answer shape of every opcode.
func TestResponseRoundtrip(t *testing.T) {
	cases := []struct {
		op   byte
		resp Response
	}{
		{OpPing, Response{}},
		{OpCreateTable, Response{}},
		{OpInsert, Response{}},
		{OpInsert, Response{Status: StatusEngineErr, Msg: "no such table"}},
		{OpDelete, Response{}},
		{OpUpdate, Response{}},
		{OpBulkLoad, Response{Status: StatusDraining, Msg: "draining"}},
		{OpSelect, Response{Status: StatusOverloaded, Msg: "overloaded"}},
		{OpSelect, Response{
			IDs:  []uint64{1, 5, 1 << 40},
			Rows: [][]value.Value{{value.NewInt(3), value.NewString("x")}},
		}},
		{OpSelect, Response{IDs: []uint64{2}}},
		{OpCheckpoint, Response{}},
		{OpRows, Response{Count: 123456}},
		{OpTables, Response{Names: []string{"a", "b"}}},
		{OpApplyLayout, Response{Status: StatusBadRequest, Msg: "bad layout"}},
		{OpAdaptive, Response{}},
	}
	for i, tc := range cases {
		payload := encodeResponse(nil, tc.op, tc.resp)
		got, err := DecodeResponse(tc.op, payload)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(normalizeResp(tc.resp), normalizeResp(got)) {
			t.Errorf("case %d roundtrip mismatch:\n sent %+v\n got  %+v", i, tc.resp, got)
		}
	}
	// An OK reply to OpAdaptive is the status byte alone: the
	// scheduler's report is HTTP's.
	if p := encodeResponse(nil, OpAdaptive, Response{}); !bytes.Equal(p, []byte{StatusOK}) {
		t.Errorf("adaptive reply = %x, want the status byte alone", p)
	}
}

func normalizeResp(r Response) Response {
	if len(r.IDs) == 0 {
		r.IDs = nil
	}
	if len(r.Rows) == 0 {
		r.Rows = nil
	}
	if len(r.Names) == 0 {
		r.Names = nil
	}
	return r
}

// TestHostileFrames proves frame-level damage is always ErrProtocol,
// never a panic or a bogus success.
func TestHostileFrames(t *testing.T) {
	valid := appendFrame(nil, encodeRequest(nil, Request{Op: OpRows, Table: "t"}))

	t.Run("truncated", func(t *testing.T) {
		for cut := 1; cut < len(valid); cut++ {
			_, err := ReadFrame(bufio.NewReader(bytes.NewReader(valid[:cut])))
			if !errors.Is(err, ErrProtocol) {
				t.Fatalf("truncated at %d: err = %v, want ErrProtocol", cut, err)
			}
		}
	})
	t.Run("bitflip", func(t *testing.T) {
		for i := range valid {
			for bit := 0; bit < 8; bit++ {
				mut := append([]byte(nil), valid...)
				mut[i] ^= 1 << bit
				br := bufio.NewReader(bytes.NewReader(mut))
				payload, err := ReadFrame(br)
				if err != nil {
					continue // rejected at the frame layer: fine
				}
				// A flip the CRC did not catch can only be in the
				// length prefix encoding the same value, so the
				// payload must still decode to the original request.
				if _, derr := decodeRequest(payload, nil); derr != nil && !errors.Is(derr, ErrProtocol) {
					t.Fatalf("byte %d bit %d: decode error %v is not ErrProtocol", i, bit, derr)
				}
			}
		}
	})
	t.Run("oversized", func(t *testing.T) {
		var huge bytes.Buffer
		huge.Write([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}) // ~1<<34
		_, err := ReadFrame(bufio.NewReader(&huge))
		if !errors.Is(err, ErrProtocol) {
			t.Fatalf("oversized frame: err = %v, want ErrProtocol", err)
		}
	})
	t.Run("empty stream", func(t *testing.T) {
		_, err := ReadFrame(bufio.NewReader(bytes.NewReader(nil)))
		if err != io.EOF {
			t.Fatalf("empty stream: err = %v, want io.EOF", err)
		}
	})
}

// starvedFrame is a frame header claiming a MaxFrame payload, then a
// CRC and 10 payload bytes, then the end of the stream: 18 bytes.
func starvedFrame() []byte {
	return append(binary.AppendUvarint(nil, MaxFrame), make([]byte, 4+10)...)
}

// TestStarvedFrameAllocatesLittle: a header claiming MaxFrame bytes
// that the stream does not deliver is ErrProtocol and costs an
// allocation the size of what arrived, not of the claim — 256 sessions
// sending it at once must not ask for 16 GiB.
func TestStarvedFrameAllocatesLittle(t *testing.T) {
	br := bufio.NewReader(bytes.NewReader(starvedFrame()))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadFrame(br)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrProtocol) {
		t.Fatalf("starved frame: err = %v, want ErrProtocol", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("starved frame allocated %d bytes, want < 1 MiB", got)
	}
}

// TestStreamKeepsBuffers: once its buffers have grown to a frame's
// size, a Stream encodes, writes, reads and CRC-checks the next such
// frame without allocating.
func TestStreamKeepsBuffers(t *testing.T) {
	var pipe bytes.Buffer
	st := NewStream(&pipe)
	resp := Response{IDs: []uint64{1, 2}, Rows: [][]value.Value{
		{value.NewString("a"), value.NewInt(1)}, {value.NewString("b"), value.NewInt(2)},
	}}
	roundtrip := func() {
		if err := st.WriteResponse(OpSelect, resp); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Read(); err != nil {
			t.Fatal(err)
		}
	}
	roundtrip()
	if got := testing.AllocsPerRun(100, roundtrip); got != 0 {
		t.Errorf("%.0f allocs per frame written and read, want 0", got)
	}
}

// TestSessionNamesInterned: a session decodes a table name it has seen
// without allocating, and interns at most maxNames names.
func TestSessionNamesInterned(t *testing.T) {
	names := map[string]string{}
	rows := encodeRequest(nil, Request{Op: OpRows, Table: "orders"})
	if _, err := decodeRequest(rows, names); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(100, func() {
		if req, err := decodeRequest(rows, names); err != nil || req.Table != "orders" {
			t.Fatalf("decoded %q, %v", req.Table, err)
		}
	}); got != 0 {
		t.Errorf("decoding an interned table name: %.0f allocs, want 0", got)
	}
	for i := 0; i < 2*maxNames; i++ {
		table := fmt.Sprintf("t%d", i)
		if req, err := decodeRequest(encodeRequest(nil, Request{Op: OpRows, Table: table}), names); err != nil || req.Table != table {
			t.Fatalf("decoded %q, %v; want %q", req.Table, err, table)
		}
	}
	if len(names) != maxNames {
		t.Errorf("%d names interned, want at most %d", len(names), maxNames)
	}
}

// TestHostilePayloads proves CRC-valid but malformed payloads are
// ErrProtocol — truncations, trailing garbage, hostile counts.
func TestHostilePayloads(t *testing.T) {
	for _, req := range sampleRequests() {
		payload := encodeRequest(nil, req)
		for cut := 0; cut < len(payload); cut++ {
			if _, err := decodeRequest(payload[:cut], nil); err != nil && !errors.Is(err, ErrProtocol) {
				t.Fatalf("op %d truncated payload at %d: %v not ErrProtocol", req.Op, cut, err)
			}
		}
		if _, err := decodeRequest(append(append([]byte(nil), payload...), 0), nil); !errors.Is(err, ErrProtocol) {
			t.Fatalf("op %d trailing byte accepted", req.Op)
		}
	}
	// A hostile element count must not drive a huge allocation: the
	// count is bounds-checked against the remaining payload.
	hostile := []byte{OpBulkLoad, 1, 't', 0xff, 0xff, 0xff, 0xff, 0x0f}
	if _, err := decodeRequest(hostile, nil); !errors.Is(err, ErrProtocol) {
		t.Fatalf("hostile count: err = %v, want ErrProtocol", err)
	}
	if _, err := decodeRequest(nil, nil); !errors.Is(err, ErrProtocol) {
		t.Fatal("empty payload accepted")
	}
	if _, err := decodeRequest([]byte{250}, nil); !errors.Is(err, ErrProtocol) {
		t.Fatal("unknown opcode accepted")
	}
	// An unknown predicate-op byte is a payload error, not a panic.
	badOp := []byte{OpSelect, 1, 't', 1, 1, 'c', 9, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0}
	if _, err := decodeRequest(badOp, nil); !errors.Is(err, ErrProtocol) {
		t.Fatalf("select bad predicate op: err = %v, want ErrProtocol", err)
	}
	for _, r := range retiredPayloads() {
		if _, err := decodeRequest(r.payload, nil); !errors.Is(err, ErrProtocol) {
			t.Errorf("%s: err = %v, want ErrProtocol", r.name, err)
		}
	}
}

// TestRetiredRequestsKeepSession sends every retired request shape down
// one live session: each is answered with StatusBadRequest, like any
// other CRC-valid payload that does not decode, and the session goes on
// serving the next request.
func TestRetiredRequestsKeepSession(t *testing.T) {
	srv := New(struct{ Engine }{}, Config{}) // Ping never reaches the engine
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
	exchange := func(op byte, payload []byte) Response {
		t.Helper()
		if _, err := nc.Write(appendFrame(nil, payload)); err != nil {
			t.Fatal(err)
		}
		reply, err := ReadFrame(br)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := DecodeResponse(op, reply)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	for _, r := range retiredPayloads() {
		if resp := exchange(r.payload[0], r.payload); resp.Status != StatusBadRequest {
			t.Errorf("%s: status %d (%s), want StatusBadRequest", r.name, resp.Status, resp.Msg)
		}
		if resp := exchange(OpPing, []byte{OpPing}); resp.Status != StatusOK {
			t.Fatalf("ping after %s: status %d (%s)", r.name, resp.Status, resp.Msg)
		}
	}
}

// TestBareResponse covers the frame a shed connection receives: a
// non-OK response decodes to its typed status and message whatever the
// opcode of the request that reads it.
func TestBareResponse(t *testing.T) {
	reject := encodeResponse(nil, 0, Response{Status: StatusOverloaded, Msg: "overloaded"})
	resp, err := DecodeResponse(0, reject)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusOverloaded || resp.Msg != "overloaded" {
		t.Fatalf("bare response = %+v", resp)
	}
}
