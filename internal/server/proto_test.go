package server

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"

	"tierdb/internal/explain"
	"tierdb/internal/schema"
	"tierdb/internal/value"
)

// sampleRequests covers every opcode with a representative body.
func sampleRequests() []Request {
	return []Request{
		{Op: OpPing},
		{Op: OpCheckpoint},
		{Op: OpStats},
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
			Project: []string{"id", "note"}, Traced: true},
		{Op: OpRows, Table: "orders"},
		{Op: OpAdvise, Table: "orders", Blob: []byte(`{"budget_bytes":1024}`)},
		{Op: OpApplyLayout, Table: "orders", Layout: []bool{true, false, true}},
		{Op: OpAdaptive, Sub: AdaptiveStatus},
		{Op: OpAdaptive, Sub: AdaptiveEnable},
		{Op: OpAdaptive, Sub: AdaptiveDisable},
		{Op: OpExplain, Table: "orders",
			Specs: []explain.PredicateSpec{
				{Column: "region", Op: "eq", Value: "7"},
				{Column: "amount", Op: "between", Value: "100", Hi: "200"},
			},
			Project: []string{"amount"}, Analyze: true},
		{Op: OpExplain, Table: "orders"},
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
		got, err := decodeRequest(payload)
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
	if len(r.Blob) == 0 {
		r.Blob = nil
	}
	if len(r.Layout) == 0 {
		r.Layout = nil
	}
	if len(r.Specs) == 0 {
		r.Specs = nil
	}
	return r
}

// TestResponseRoundtrip encodes representative responses for every
// answer shape.
func TestResponseRoundtrip(t *testing.T) {
	cases := []struct {
		op   byte
		resp Response
	}{
		{OpPing, Response{}},
		{OpInsert, Response{Status: StatusEngineErr, Msg: "no such table"}},
		{OpSelect, Response{Status: StatusOverloaded, Msg: "overloaded"}},
		{OpSelect, Response{
			IDs:   []uint64{1, 5, 1 << 40},
			Rows:  [][]value.Value{{value.NewInt(3), value.NewString("x")}},
			Trace: "trace text",
		}},
		{OpStats, Response{Blob: []byte(`{"counters":{}}`)}},
		{OpAdvise, Response{Blob: []byte(`{"table":"t"}`)}},
		{OpAdaptive, Response{Blob: []byte(`{"enabled":true}`)}},
		{OpExplain, Response{Blob: []byte(`{"table":"t","mode":"analyze"}`)}},
		{OpExplain, Response{Status: StatusEngineErr, Msg: "no such table"}},
		{OpRows, Response{Count: 123456}},
		{OpTables, Response{Names: []string{"a", "b"}}},
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
}

func normalizeResp(r Response) Response {
	if len(r.IDs) == 0 {
		r.IDs = nil
	}
	if len(r.Rows) == 0 {
		r.Rows = nil
	}
	if len(r.Blob) == 0 {
		r.Blob = nil
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
				if _, derr := decodeRequest(payload); derr != nil && !errors.Is(derr, ErrProtocol) {
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

// TestHostilePayloads proves CRC-valid but malformed payloads are
// ErrProtocol — truncations, trailing garbage, hostile counts.
func TestHostilePayloads(t *testing.T) {
	for _, req := range sampleRequests() {
		payload := encodeRequest(nil, req)
		for cut := 0; cut < len(payload); cut++ {
			if _, err := decodeRequest(payload[:cut]); err != nil && !errors.Is(err, ErrProtocol) {
				t.Fatalf("op %d truncated payload at %d: %v not ErrProtocol", req.Op, cut, err)
			}
		}
		if _, err := decodeRequest(append(append([]byte(nil), payload...), 0)); !errors.Is(err, ErrProtocol) {
			t.Fatalf("op %d trailing byte accepted", req.Op)
		}
	}
	// A hostile element count must not drive a huge allocation: the
	// count is bounds-checked against the remaining payload.
	hostile := []byte{OpBulkLoad, 1, 't', 0xff, 0xff, 0xff, 0xff, 0x0f}
	if _, err := decodeRequest(hostile); !errors.Is(err, ErrProtocol) {
		t.Fatalf("hostile count: err = %v, want ErrProtocol", err)
	}
	if _, err := decodeRequest(nil); !errors.Is(err, ErrProtocol) {
		t.Fatal("empty payload accepted")
	}
	if _, err := decodeRequest([]byte{250}); !errors.Is(err, ErrProtocol) {
		t.Fatal("unknown opcode accepted")
	}
	// Explain-specific field validation: an unknown predicate-op byte
	// and a non-boolean analyze flag are payload errors, not panics.
	badOp := []byte{OpExplain, 1, 't', 1, 1, 'c', 9, 1, 'v', 0, 0, 0}
	if _, err := decodeRequest(badOp); !errors.Is(err, ErrProtocol) {
		t.Fatalf("explain bad predicate op: err = %v, want ErrProtocol", err)
	}
	good := encodeRequest(nil, Request{Op: OpExplain, Table: "t",
		Specs: []explain.PredicateSpec{{Column: "c", Op: "eq", Value: "1"}}})
	badAnalyze := append(append([]byte(nil), good[:len(good)-1]...), 2)
	if _, err := decodeRequest(badAnalyze); !errors.Is(err, ErrProtocol) {
		t.Fatalf("explain bad analyze flag: err = %v, want ErrProtocol", err)
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
