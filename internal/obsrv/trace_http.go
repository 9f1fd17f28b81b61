// The /trace/{id} endpoint and the health/readiness probes.
package obsrv

import (
	"fmt"
	"net/http"
	"slices"
	"strings"

	"tierdb/internal/trace"
)

// traceReply is the JSON shape of /trace/{id}.
type traceReply struct {
	TraceID string `json:"trace_id"`
	// Spans is the trace's span tree. Spans whose parent aged out of
	// the ring (or ran in another process) appear as extra roots.
	Spans []*trace.Node `json:"spans"`
	// SlowestPath lists the span IDs on the slowest root-to-leaf chain
	// of the first root.
	SlowestPath []trace.SpanID `json:"slowest_path,omitempty"`
}

// serveTrace answers /trace/{id}: the full span tree of one distributed
// trace, as JSON or (?format=text) an indented listing with the slowest
// path marked '*'.
func (s *Server) serveTrace(w http.ResponseWriter, r *http.Request) {
	if s.Spans == nil {
		http.Error(w, "span capture not enabled", http.StatusNotFound)
		return
	}
	raw := strings.TrimPrefix(r.URL.Path, "/trace/")
	if raw == "" || strings.Contains(raw, "/") {
		http.Error(w, "want /trace/{id}", http.StatusBadRequest)
		return
	}
	id, err := trace.ParseTraceID(raw)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	spans := s.Spans.ByTrace(id)
	if len(spans) == 0 {
		http.Error(w, "no spans for trace "+id.String()+" (aged out or never sampled)", http.StatusNotFound)
		return
	}
	roots := trace.BuildTree(spans)
	highlight := trace.SlowestPath(roots[0])
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "trace %s: %d spans (slowest path marked *)\n", id, len(spans))
		fmt.Fprint(w, trace.RenderText(roots, highlight))
		return
	}
	reply := traceReply{TraceID: id.String(), Spans: roots}
	for sid := range highlight {
		reply.SlowestPath = append(reply.SlowestPath, sid)
	}
	slices.Sort(reply.SlowestPath)
	writeJSON(w, reply)
}

// serveHealthz is the liveness probe: if the handler runs, the process
// is alive. Always 200.
func (s *Server) serveHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// serveReadyz is the readiness probe: 200 once WAL recovery finished
// and the instance accepts work, 503 before that (and again while
// closing). 404 when no readiness source is wired.
func (s *Server) serveReadyz(w http.ResponseWriter, r *http.Request) {
	if s.Ready == nil {
		http.Error(w, "no readiness source", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !s.Ready() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "not ready")
		return
	}
	fmt.Fprintln(w, "ready")
}
