package obsrv

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tierdb/internal/trace"
)

// tracedServer is testServer plus a span ring holding one two-span
// trace, and health/build sources.
func tracedServer(t *testing.T) (*Server, trace.TraceID) {
	t.Helper()
	tr := trace.New(trace.Options{SampleRate: 1})
	root := tr.Start("client.send")
	child := root.Child("server.request")
	child.End()
	root.End()

	s := testServer()
	s.Spans = tr.Ring()
	ready := true
	s.Ready = func() bool { return ready }
	s.Build = func() BuildInfo {
		return BuildInfo{Version: "v1.2.3", GoVersion: "go1.22", Revision: "abc123"}
	}
	s.Uptime = func() time.Duration { return 90 * time.Second }
	return s, root.Trace
}

func TestServeTraceByID(t *testing.T) {
	s, id := tracedServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := get(t, ts, "/trace/"+id.String())
	if code != 200 {
		t.Fatalf("/trace/%s: status %d: %s", id, code, body)
	}
	var reply struct {
		TraceID string        `json:"trace_id"`
		Spans   []*trace.Node `json:"spans"`
	}
	if err := json.Unmarshal(body, &reply); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, body)
	}
	if reply.TraceID != id.String() {
		t.Errorf("trace_id %q != %q", reply.TraceID, id)
	}
	if len(reply.Spans) != 1 || reply.Spans[0].Span.Name != "client.send" ||
		len(reply.Spans[0].Children) != 1 || reply.Spans[0].Children[0].Span.Name != "server.request" {
		t.Errorf("tree shape wrong: %s", body)
	}

	code, body = get(t, ts, "/trace/"+id.String()+"?format=text")
	if code != 200 {
		t.Fatalf("text format: status %d", code)
	}
	for _, want := range []string{"trace " + id.String(), "client.send", "server.request"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("text rendering missing %q:\n%s", want, body)
		}
	}
}

func TestServeTraceErrors(t *testing.T) {
	s, _ := tracedServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for path, want := range map[string]int{
		"/trace/":                 400, // no id
		"/trace/notahexid":        400,
		"/trace/00000000deadbeef": 404, // parses, never sampled
		"/trace/a/b":              400, // path junk
	} {
		if code, _ := get(t, ts, path); code != want {
			t.Errorf("GET %s: status %d, want %d", path, code, want)
		}
	}

	// Without a span ring the endpoint is absent-by-config: 404.
	bare := testServer()
	ts2 := httptest.NewServer(bare.Handler())
	defer ts2.Close()
	if code, _ := get(t, ts2, "/trace/00000000deadbeef"); code != 404 {
		t.Errorf("nil ring: status %d, want 404", code)
	}
}

func TestServeHealthAndReadiness(t *testing.T) {
	ready := false
	s := testServer()
	s.Ready = func() bool { return ready }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := get(t, ts, "/healthz")
	if code != 200 || strings.TrimSpace(string(body)) != "ok" {
		t.Errorf("/healthz: %d %q", code, body)
	}
	if code, _ := get(t, ts, "/readyz"); code != 503 {
		t.Errorf("/readyz while not ready: %d, want 503", code)
	}
	ready = true
	code, body = get(t, ts, "/readyz")
	if code != 200 || strings.TrimSpace(string(body)) != "ready" {
		t.Errorf("/readyz when ready: %d %q", code, body)
	}

	// No readiness source wired: the probe is absent, not lying.
	bare := testServer()
	ts2 := httptest.NewServer(bare.Handler())
	defer ts2.Close()
	if code, _ := get(t, ts2, "/readyz"); code != 404 {
		t.Errorf("/readyz with nil source: %d, want 404", code)
	}
}

func TestMetricsIncludeBuildInfoAndUptime(t *testing.T) {
	s, _ := tracedServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := get(t, ts, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics: %d", code)
	}
	if err := ValidateExposition(body); err != nil {
		t.Fatalf("/metrics with build info invalid: %v\n%s", err, body)
	}
	for _, want := range []string{
		`tierdb_build_info{version="v1.2.3",goversion="go1.22",revision="abc123"} 1`,
		"tierdb_uptime_seconds 90",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
}

// TestBuildInfoEscaping proves hostile metadata cannot corrupt the
// exposition format.
func TestBuildInfoEscaping(t *testing.T) {
	out := RenderBuildInfo(BuildInfo{Version: "v1\n\"x\\y", GoVersion: "go1.22"})
	if err := ValidateExposition(out); err != nil {
		t.Fatalf("escaped build info invalid: %v\n%s", err, out)
	}
}
