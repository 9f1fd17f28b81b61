package server_test

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"strings"
	"sync"
	"testing"

	"tierdb/internal/server"
	"tierdb/internal/server/client"
	"tierdb/internal/trace"
	"tierdb/internal/value"
)

// findSpans returns the spans with the given name among ss.
func findSpans(ss []*trace.Span, name string) []*trace.Span {
	var out []*trace.Span
	for _, s := range ss {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// checkSpanTree asserts structural sanity over one trace's spans: every
// parent link resolves inside the trace, clocks are ordered, and every
// child interval nests inside its parent (all spans here come from one
// process, so wall clocks are comparable).
func checkSpanTree(t *testing.T, spans []*trace.Span) {
	t.Helper()
	byID := make(map[trace.SpanID]*trace.Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.EndNs < s.StartNs {
			t.Errorf("span %s %q ends before it starts: %d < %d", s.ID, s.Name, s.EndNs, s.StartNs)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			// The root's parent may live in another ring (the client's
			// span when checking a server ring); only flag links that
			// dangle inside the same ring's tree.
			continue
		}
		if s.StartNs < p.StartNs || s.EndNs > p.EndNs {
			t.Errorf("span %q [%d,%d] escapes parent %q [%d,%d]",
				s.Name, s.StartNs, s.EndNs, p.Name, p.StartNs, p.EndNs)
		}
	}
}

// TestTracePropagation proves the wire header carries the client's
// trace identity to the server: the server's spans land in the same
// trace, parented under the client's send span.
func TestTracePropagation(t *testing.T) {
	serverTracer := trace.New(trace.Options{SampleRate: 0}) // remote-sampled only
	clientTracer := trace.New(trace.Options{SampleRate: 1})
	_, addr := boot(t, newFakeEngine(), server.Config{Tracer: serverTracer})
	c, err := client.Dial(client.Config{Addr: addr, PoolSize: 1, Tracer: clientTracer})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Insert("t", []value.Value{value.NewInt(7)}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Select("t", nil, "c0"); err != nil {
		t.Fatal(err)
	}

	sends := findSpans(clientTracer.Ring().Snapshot(), "client.send")
	if len(sends) != 2 {
		t.Fatalf("want 2 client.send spans, got %d", len(sends))
	}
	for _, send := range sends {
		// The server span ends before the response frame is written, so
		// by the time the client call returned it is in the server ring.
		srvSpans := serverTracer.Ring().ByTrace(send.Trace)
		reqs := findSpans(srvSpans, "server.request")
		if len(reqs) != 1 {
			t.Fatalf("trace %s: want 1 server.request span, got %d", send.Trace, len(reqs))
		}
		req := reqs[0]
		if req.Trace != send.Trace {
			t.Errorf("server span trace %s != client trace %s", req.Trace, send.Trace)
		}
		if req.Parent != send.ID {
			t.Errorf("server.request parent %s != client.send id %s", req.Parent, send.ID)
		}
		for _, name := range []string{"server.admission", "server.engine"} {
			kids := findSpans(srvSpans, name)
			if len(kids) != 1 {
				t.Fatalf("trace %s: want 1 %s span, got %d", send.Trace, name, len(kids))
			}
			if kids[0].Parent != req.ID {
				t.Errorf("%s parent %s != server.request id %s", name, kids[0].Parent, req.ID)
			}
		}
		checkSpanTree(t, srvSpans)
		// The client span brackets the whole round trip.
		if req.StartNs < send.StartNs || req.EndNs > send.EndNs {
			t.Errorf("server.request [%d,%d] escapes client.send [%d,%d]",
				req.StartNs, req.EndNs, send.StartNs, send.EndNs)
		}
	}
}

// TestServerLocalSampling proves a bare (header-less) request can still
// be sampled server-side as a root span.
func TestServerLocalSampling(t *testing.T) {
	serverTracer := trace.New(trace.Options{SampleRate: 1})
	_, addr := boot(t, newFakeEngine(), server.Config{Tracer: serverTracer})
	c, err := client.Dial(client.Config{Addr: addr, PoolSize: 1}) // no client tracer
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	reqs := findSpans(serverTracer.Ring().Snapshot(), "server.request")
	if len(reqs) != 1 {
		t.Fatalf("want 1 locally-sampled server.request, got %d", len(reqs))
	}
	if reqs[0].Parent != 0 {
		t.Errorf("bare request's server span should be a root, has parent %s", reqs[0].Parent)
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for capturing log output
// written from session goroutines.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (sb *syncBuffer) Write(p []byte) (int, error) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.b.Write(p)
}

func (sb *syncBuffer) String() string {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.b.String()
}

// TestRequestLogWideEvent proves Config.RequestLog emits one structured
// record per request carrying the trace ID join key and the request's
// outcome, and that failures log at Warn.
func TestRequestLogWideEvent(t *testing.T) {
	var buf syncBuffer
	logger := slog.New(slog.NewJSONHandler(&buf, &slog.HandlerOptions{Level: slog.LevelInfo}))
	serverTracer := trace.New(trace.Options{SampleRate: 1})
	_, addr := boot(t, newFakeEngine(), server.Config{
		Tracer:     serverTracer,
		Logger:     logger,
		RequestLog: true,
	})
	c, err := client.Dial(client.Config{Addr: addr, PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Insert("t", []value.Value{value.NewInt(1)}); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("missing", []value.Value{value.NewInt(1)}); err == nil {
		t.Fatal("insert into missing table should fail")
	}

	// The wide event is written before the response frame, so both
	// records are in the buffer once the calls returned.
	var events []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("log line is not JSON: %q: %v", line, err)
		}
		if m["msg"] == "request" {
			events = append(events, m)
		}
	}
	if len(events) != 2 {
		t.Fatalf("want 2 request events, got %d:\n%s", len(events), buf.String())
	}
	ok, failed := events[0], events[1]
	if ok["op"] != "insert" || ok["table"] != "t" || ok["level"] != "INFO" {
		t.Errorf("first event wrong: %v", ok)
	}
	if failed["level"] != "WARN" || failed["table"] != "missing" {
		t.Errorf("failure event should be WARN for table missing: %v", failed)
	}
	for i, e := range events {
		id, _ := e["trace_id"].(string)
		if _, err := trace.ParseTraceID(id); err != nil {
			t.Errorf("event %d trace_id %q does not parse: %v", i, id, err)
		}
		for _, key := range []string{"duration_ns", "queue_wait_ns", "status"} {
			if _, present := e[key]; !present {
				t.Errorf("event %d missing %q: %v", i, key, e)
			}
		}
	}
}
