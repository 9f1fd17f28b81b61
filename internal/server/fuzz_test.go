package server

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"testing"
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
			req, err := decodeRequest(payload)
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
			if _, derr := decodeRequest(p2); derr != nil {
				t.Fatalf("re-decode of re-encoded request failed: %v", derr)
			}
		}
	})
}
