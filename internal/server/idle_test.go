package server

import (
	"bufio"
	"io"
	"net"
	"testing"
	"time"

	"tierdb/internal/metrics"
)

// TestIdleSessionClosed: a session that waits longer than the read
// timeout for its next request is closed, and the sessions gauge goes
// back to zero.
func TestIdleSessionClosed(t *testing.T) {
	reg := metrics.NewRegistry()
	srv := New(nil, Config{Registry: reg, readTimeout: 20 * time.Millisecond})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Shutdown()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// One answered ping shows the session was admitted before it idles.
	if err := WriteRequest(conn, Request{Op: OpPing}); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	if _, err := ReadFrame(br); err != nil {
		t.Fatalf("ping: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := ReadFrame(br); err != io.EOF {
		t.Fatalf("read after idling = %v, want io.EOF from the server's close", err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		g := reg.Snapshot().Gauges["server.sessions"]
		if g.Max == 1 && g.Value == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sessions gauge = %+v after the idle close, want Max 1 and Value 0", g)
		}
	}
}
