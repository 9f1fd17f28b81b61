package server

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math"
	"slices"
	"testing"

	"tierdb/internal/codec"
	"tierdb/internal/value"
)

// FuzzServerFrame throws arbitrary byte streams at the exact pipeline a
// session runs on every frame — ReadFrame then decodeRequest — and
// proves hostile input never panics and never produces an untyped
// error: every failure is ErrProtocol (or clean EOF at a frame
// boundary). Valid frames that decode must re-encode through the codec
// without error, so the fuzzer also exercises the response path on
// whatever requests it manages to construct.
func FuzzServerFrame(f *testing.F) {
	// Seed with every opcode's canonical encoding and every retired
	// request shape, plus classic hostile shapes: truncations, a huge
	// length prefix, a corrupt CRC.
	var payloads [][]byte
	for _, req := range sampleRequests() {
		payloads = append(payloads, encodeRequest(nil, req))
	}
	for _, r := range retiredPayloads() {
		payloads = append(payloads, r.payload)
	}
	for _, p := range payloads {
		frame := appendFrame(nil, p)
		f.Add(frame)
		f.Add(frame[:len(frame)/2])
		flipped := append([]byte(nil), frame...)
		flipped[len(flipped)-1] ^= 0x80
		f.Add(flipped)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Add(starvedFrame())
	f.Add([]byte("GET / HTTP/1.1\r\n\r\n"))

	f.Fuzz(func(t *testing.T, stream []byte) {
		br := bufio.NewReader(bytes.NewReader(stream))
		for {
			payload, err := ReadFrame(br)
			if err != nil {
				if err != io.EOF && !errors.Is(err, ErrProtocol) {
					t.Fatalf("ReadFrame: %v is neither EOF nor ErrProtocol", err)
				}
				return
			}
			req, err := decodeRequest(payload, nil)
			if err != nil {
				if !errors.Is(err, ErrProtocol) {
					t.Fatalf("decodeRequest: %v is not ErrProtocol", err)
				}
				// A payload-level error keeps the session alive and
				// frame-aligned; keep consuming the stream like the
				// session loop does.
				continue
			}
			// The request decoded: it must survive a re-encode
			// roundtrip, like the one the session's response path and
			// the client's request path perform.
			var buf bytes.Buffer
			if werr := WriteRequest(&buf, req); werr != nil {
				t.Fatalf("re-encode of decoded request failed: %v", werr)
			}
			p2, rerr := ReadFrame(bufio.NewReader(&buf))
			if rerr != nil {
				t.Fatalf("re-read of re-encoded request failed: %v", rerr)
			}
			if _, derr := decodeRequest(p2, nil); derr != nil {
				t.Fatalf("re-decode of re-encoded request failed: %v", derr)
			}
		}
	})
}

// FuzzSharedResponseDecode is a differential check of the reply decoder:
// for every input, DecodeResponse, whose strings share one copy of the
// payload, returns what the copying decoder returns — the same error,
// or values that are bitwise equal — and its strings stay so after the
// payload buffer is overwritten, as a connection's kept buffer is by
// the next reply.
func FuzzSharedResponseDecode(f *testing.F) {
	str := value.NewString
	for _, tc := range []struct {
		op   byte
		resp Response
	}{
		{OpSelect, Response{IDs: []uint64{1}, Rows: [][]value.Value{{str(""), str("")}}}},
		{OpSelect, Response{IDs: []uint64{1, 2}, Rows: [][]value.Value{{str("ab"), str("cd")}, {str("e"), value.NewFloat(math.NaN())}}}},
		{OpSelect, Response{IDs: []uint64{3}, Rows: [][]value.Value{{value.NewInt(-1), str("ends the payload")}}}},
		{OpTables, Response{Names: []string{"", "a", "bc"}}},
		{OpSelect, Response{Status: StatusEngineErr, Msg: "no such table"}},
		{OpInsert, Response{Status: StatusOverloaded, Msg: ""}},
		{OpRows, Response{Count: 7}},
	} {
		f.Add(tc.op, encodeResponse(nil, tc.op, tc.resp))
	}
	f.Fuzz(func(t *testing.T, op byte, payload []byte) {
		want, werr := decodeResponse(op, codec.NewReader(payload, ErrProtocol))
		got, gerr := DecodeResponse(op, payload)
		if (werr == nil) != (gerr == nil) || werr != nil && werr.Error() != gerr.Error() {
			t.Fatalf("shared decoder error %v, copying decoder error %v", gerr, werr)
		}
		for i := range payload {
			payload[i] ^= 0xa5
		}
		if !sameResponse(got, want) {
			t.Fatalf("shared decoder returned %+v, copying decoder %+v", got, want)
		}
	})
}

// sameResponse reports whether two responses are equal field by field,
// their values bitwise.
func sameResponse(a, b Response) bool {
	if a.Status != b.Status || a.Msg != b.Msg || a.Count != b.Count ||
		!slices.Equal(a.IDs, b.IDs) || !slices.Equal(a.Names, b.Names) || len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Rows {
		if !slices.EqualFunc(a.Rows[i], b.Rows[i], func(x, y value.Value) bool {
			return x.Type() == y.Type() && x.Int() == y.Int() && x.Str() == y.Str() &&
				math.Float64bits(x.Float()) == math.Float64bits(y.Float())
		}) {
			return false
		}
	}
	return true
}
