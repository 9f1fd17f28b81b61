package server

import (
	"bufio"
	"bytes"
	"errors"
	"reflect"
	"testing"

	"tierdb/internal/value"
)

// TestTraceHeaderRoundtrip proves the OpTraced envelope carries the
// trace identity across the wire for every opcode without disturbing
// the inner request body.
func TestTraceHeaderRoundtrip(t *testing.T) {
	for _, req := range sampleRequests() {
		req.TraceID = 0xdeadbeefcafef00d
		req.SpanID = 0x42
		var stream bytes.Buffer
		if err := WriteRequest(&stream, req); err != nil {
			t.Fatalf("op %d: write: %v", req.Op, err)
		}
		payload, err := ReadFrame(bufio.NewReader(&stream))
		if err != nil {
			t.Fatalf("op %d: read frame: %v", req.Op, err)
		}
		if payload[0] != OpTraced {
			t.Fatalf("op %d: traced request does not start with the envelope opcode: %d", req.Op, payload[0])
		}
		got, err := decodeRequest(payload, nil)
		if err != nil {
			t.Fatalf("op %d: decode: %v", req.Op, err)
		}
		if got.TraceID != req.TraceID || got.SpanID != req.SpanID {
			t.Errorf("op %d: trace identity lost: got %s/%s", req.Op, got.TraceID, got.SpanID)
		}
		if !reflect.DeepEqual(normalizeReq(req), normalizeReq(got)) {
			t.Errorf("op %d roundtrip mismatch:\n sent %+v\n got  %+v", req.Op, req, got)
		}
	}
}

// TestTraceHeaderAbsentWhenUnsampled proves a zero TraceID encodes the
// bare legacy payload — byte-identical to what a pre-tracing client
// sends, which is the whole backward-compatibility story.
func TestTraceHeaderAbsentWhenUnsampled(t *testing.T) {
	req := Request{Op: OpInsert, Table: "t", Row: []value.Value{value.NewInt(1)}}
	bare := encodeRequest(nil, req)
	if bare[0] == OpTraced {
		t.Fatalf("unsampled request grew a trace envelope")
	}
	traced := encodeRequest(nil, Request{Op: OpInsert, Table: "t", Row: []value.Value{value.NewInt(1)}, TraceID: 1, SpanID: 2})
	if !bytes.Equal(traced[len(traced)-len(bare):], bare) {
		t.Fatalf("envelope is not a pure prefix:\n bare   %x\n traced %x", bare, traced)
	}
}

// TestTraceHeaderRejects covers the envelope's protocol errors: a zero
// trace ID (reserved to mean "no trace") and a nested envelope.
func TestTraceHeaderRejects(t *testing.T) {
	inner := encodeRequest(nil, Request{Op: OpPing})

	zero := append([]byte{OpTraced, 0x00, 0x05}, inner...)
	if _, err := decodeRequest(zero, nil); !errors.Is(err, ErrProtocol) {
		t.Errorf("zero trace id: got %v, want ErrProtocol", err)
	}

	nested := append([]byte{OpTraced, 0x01, 0x02}, append([]byte{OpTraced, 0x03, 0x04}, inner...)...)
	if _, err := decodeRequest(nested, nil); !errors.Is(err, ErrProtocol) {
		t.Errorf("nested envelope: got %v, want ErrProtocol", err)
	}

	truncated := []byte{OpTraced, 0x07}
	if _, err := decodeRequest(truncated, nil); err == nil {
		t.Errorf("truncated envelope decoded without error")
	}
}
