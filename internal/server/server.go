// Package server is tierdb's concurrent network service layer: a TCP
// server exposing the engine's operations over the CRC-framed binary
// protocol of proto.go. It is deliberately root-decoupled — the engine
// is an interface, so the package has no dependency on the tierdb root
// package (which wires it up via Config.ListenAddr) and tests can run
// sessions against a fake.
//
// The server is production-shaped rather than demo-shaped:
//
//   - Admission control. A session semaphore (Config.MaxSessions) caps
//     concurrent connections and an inflight semaphore
//     (Config.MaxInflight) caps requests executing in the engine at
//     once. Both shed load with a typed overloaded response the moment
//     they are full — nothing queues unboundedly.
//   - Deadlines. Every frame read carries a read deadline and every
//     response write a write deadline, so a stalled or vanished peer
//     can never pin a session goroutine forever.
//   - Graceful drain. Shutdown stops accepting, nudges idle sessions
//     awake, answers late requests with StatusDraining, waits for
//     inflight work to finish writing its responses, and only then
//     returns — so the owner can close the engine (WAL, merge
//     scheduler) with no request mid-flight.
//   - Observability. server.{sessions,inflight,requests_total,rejects,
//     request_ns} land in the engine's metrics registry and therefore
//     in /metrics, /stats.json and `tierctl stats`.
package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"tierdb/internal/metrics"
	"tierdb/internal/schema"
	"tierdb/internal/trace"
	"tierdb/internal/value"
)

// Engine is the surface the service layer needs from the database. The
// tierdb root package adapts *tierdb.DB to it; tests substitute fakes.
// Implementations must be safe for concurrent use.
//
// Every method receives the request's context, which carries the
// server span when the request is traced; engines propagate it into
// execution and WAL commit so their spans land in the same tree.
type Engine interface {
	CreateTable(ctx context.Context, name string, fields []schema.Field) error
	Insert(ctx context.Context, table string, row []value.Value) error
	Delete(ctx context.Context, table string, id uint64) error
	Update(ctx context.Context, table string, id uint64, row []value.Value) error
	BulkLoad(ctx context.Context, table string, rows [][]value.Value) error
	// Select runs a conjunctive query.
	Select(ctx context.Context, table string, preds []Predicate, project []string) (*Result, error)
	Checkpoint(ctx context.Context) error
	Rows(table string) (int, error)
	Tables() []string
	ApplyLayout(table string, inDRAM []bool) error
	// Adaptive turns the adaptive placement scheduler's periodic loop
	// on or off.
	Adaptive(enable bool) error
}

// Config tunes the service layer. The zero value selects the defaults.
type Config struct {
	// MaxSessions caps concurrent connections; further connects are
	// shed with an overloaded frame and closed. 0 selects
	// DefaultMaxSessions.
	MaxSessions int
	// MaxInflight caps requests executing in the engine at once across
	// all sessions; excess requests are answered with an overloaded
	// response immediately instead of queuing. 0 selects
	// DefaultMaxInflight.
	MaxInflight int
	// DrainTimeout bounds how long Shutdown waits for inflight
	// requests before force-closing their connections. 0 selects
	// DefaultDrainTimeout.
	DrainTimeout time.Duration
	// Registry receives the server.* instruments; nil runs unmetered.
	Registry *metrics.Registry
	// Tracer records server spans: one "server.request" span per
	// request, continuing the client's trace when the request carries
	// the wire header, locally sampled otherwise. Nil disables server
	// tracing.
	Tracer *trace.Tracer
	// Logger receives server log records; nil discards them.
	Logger *slog.Logger
	// RequestLog, when set, emits one structured "wide event" per
	// request on Logger: trace ID, opcode, table, rows, queue wait,
	// duration and status — the greppable join key to /trace/{id}.
	RequestLog bool

	// readTimeout overrides DefaultReadTimeout; the package's tests use
	// a short one to see an idle session closed.
	readTimeout time.Duration
}

// Defaults for Config's zero values.
const (
	DefaultMaxSessions  = 256
	DefaultMaxInflight  = 64
	DefaultReadTimeout  = 5 * time.Minute // a session's wait for its next request frame
	DefaultDrainTimeout = 10 * time.Second
)

// DefaultWriteTimeout bounds writing one response.
const DefaultWriteTimeout = 30 * time.Second

// Server serves the tierdb wire protocol on listeners passed to Serve.
type Server struct {
	engine   Engine
	cfg      Config
	tracer   *trace.Tracer
	log      *slog.Logger
	inflight chan struct{}

	sessions  *metrics.Gauge
	inflightG *metrics.Gauge
	requests  *metrics.Counter
	rejects   *metrics.Counter
	errs      *metrics.Counter
	requestNs *metrics.Histogram

	draining atomic.Bool

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	nSessions int
	wg        sync.WaitGroup // one per live session
}

// New builds a server for the engine. Call Serve to start accepting.
func New(engine Engine, cfg Config) *Server {
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = DefaultMaxSessions
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = DefaultMaxInflight
	}
	if cfg.readTimeout <= 0 {
		cfg.readTimeout = DefaultReadTimeout
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = DefaultDrainTimeout
	}
	r := cfg.Registry
	log := cfg.Logger
	if log == nil {
		log = slog.New(nopHandler{})
	}
	return &Server{
		engine:    engine,
		cfg:       cfg,
		tracer:    cfg.Tracer,
		log:       log,
		inflight:  make(chan struct{}, cfg.MaxInflight),
		sessions:  r.Gauge("server.sessions"),
		inflightG: r.Gauge("server.inflight"),
		requests:  r.Counter("server.requests_total"),
		rejects:   r.Counter("server.rejects"),
		errs:      r.Counter("server.errors"),
		requestNs: r.Histogram("server.request_ns", metrics.RequestLatencyBuckets()),
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[net.Conn]struct{}),
	}
}

// nopHandler is the handler of a server configured without a logger. Its
// Enabled is false, so slog builds no record and a request's wide event
// is never formatted. (slog.DiscardHandler needs Go 1.24.)
type nopHandler struct{}

func (nopHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (nopHandler) Handle(context.Context, slog.Record) error { return nil }
func (nopHandler) WithAttrs([]slog.Attr) slog.Handler        { return nopHandler{} }
func (nopHandler) WithGroup(string) slog.Handler             { return nopHandler{} }

// Serve accepts connections on l until the listener fails or the server
// shuts down. It blocks; run it in a goroutine. Multiple listeners may
// be served concurrently.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		l.Close()
		return ErrDraining
	}
	s.listeners[l] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, l)
		s.mu.Unlock()
		l.Close()
	}()
	for {
		conn, err := l.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			return err
		}
		if !s.admitSession(conn) {
			continue
		}
		s.wg.Add(1)
		go s.session(conn)
	}
}

// admitSession registers the connection against the session cap. Over
// capacity (or while draining) it sheds the connection: a best-effort
// typed error frame, then close.
func (s *Server) admitSession(conn net.Conn) bool {
	status := byte(StatusOK)
	s.mu.Lock()
	switch {
	case s.draining.Load():
		status = StatusDraining
	case s.nSessions >= s.cfg.MaxSessions:
		status = StatusOverloaded
	default:
		s.nSessions++
		s.conns[conn] = struct{}{}
	}
	s.mu.Unlock()
	if status == StatusOK {
		s.sessions.Add(1)
		return true
	}
	s.rejects.Inc()
	msg := ErrOverloaded.Error()
	if status == StatusDraining {
		msg = ErrDraining.Error()
	}
	conn.SetWriteDeadline(time.Now().Add(DefaultWriteTimeout))
	WriteResponse(conn, 0, Response{Status: status, Msg: msg})
	conn.Close()
	return false
}

// session runs one connection: read a frame, handle it, write the
// response, repeat. Responses go out in request order; the client
// (internal/server/client) has one request per connection in flight and
// reads its own reply.
func (s *Server) session(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.nSessions--
		s.mu.Unlock()
		s.sessions.Add(-1)
		conn.Close()
	}()
	st := NewStream(conn)
	names := make(map[string]string) // the session's interned table and column names
	respond := func(op byte, resp Response) bool {
		conn.SetWriteDeadline(time.Now().Add(DefaultWriteTimeout))
		return st.WriteResponse(op, resp) == nil
	}
	for {
		if s.draining.Load() {
			// Draining: answer whatever the peer has already sent with
			// StatusDraining, then close. An expired deadline only
			// interrupts reads that would touch the socket, so frames
			// already sitting in the buffer still decode.
			conn.SetReadDeadline(time.Now())
		} else {
			conn.SetReadDeadline(time.Now().Add(s.cfg.readTimeout))
		}
		payload, err := st.Read()
		if err != nil {
			// Clean EOF, peer timeout and drain wakeups all end the
			// session silently. Frame-level protocol damage gets a
			// best-effort typed error frame first — the stream is
			// poisoned, so the session cannot continue either way.
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				return
			}
			if errors.Is(err, ErrProtocol) && !s.draining.Load() {
				respond(0, Response{Status: StatusBadRequest, Msg: err.Error()})
			}
			return
		}
		if s.draining.Load() {
			respond(0, Response{Status: StatusDraining, Msg: ErrDraining.Error()})
			return
		}
		req, err := decodeRequest(payload, names)
		if err != nil {
			// CRC-valid but malformed payload: the stream is still
			// frame-aligned, so answer the error and keep the session.
			s.errs.Inc()
			if !respond(0, Response{Status: StatusBadRequest, Msg: err.Error()}) {
				return
			}
			continue
		}
		// The server span covers everything from decode to response:
		// admission (inflight-wait) plus engine time. A request carrying
		// the wire trace header continues the client's trace (sampling
		// was decided upstream); a bare request gets a locally-sampled
		// root span.
		var span *trace.Span
		if req.TraceID != 0 {
			span = s.tracer.StartRemote(req.TraceID, req.SpanID, "server.request")
		} else {
			span = s.tracer.Start("server.request")
		}
		span.SetAttr(trace.String("op", OpName(req.Op)))
		if req.Table != "" {
			span.SetAttr(trace.String("table", req.Table))
		}
		admitted := time.Now()
		select {
		case s.inflight <- struct{}{}:
		default:
			s.rejects.Inc()
			span.SetAttr(trace.String("status", statusName(StatusOverloaded)))
			span.SetError(ErrOverloaded)
			span.End()
			s.requestEvent(span, req, StatusOverloaded, 0, 0, admitted)
			if !respond(req.Op, Response{Status: StatusOverloaded, Msg: ErrOverloaded.Error()}) {
				return
			}
			continue
		}
		// Admission is a try-acquire today, so the wait is the decode-to
		// -acquire gap; the span still records it so a future queuing
		// admission policy is observable for free.
		queueWait := time.Since(admitted)
		span.ChildAt("server.admission", admitted.UnixNano(), admitted.UnixNano()+queueWait.Nanoseconds())
		s.inflightG.Add(1)
		start := time.Now()
		engineSpan := span.Child("server.engine")
		resp := s.handle(trace.NewContext(context.Background(), engineSpan), req)
		if resp.Status != StatusOK {
			engineSpan.SetError(errors.New(resp.Msg))
		}
		engineSpan.End()
		s.requestNs.Observe(time.Since(start).Nanoseconds())
		s.inflightG.Add(-1)
		<-s.inflight
		s.requests.Inc()
		if resp.Status != StatusOK {
			s.errs.Inc()
		}
		rows := len(resp.IDs)
		span.SetAttr(
			trace.String("status", statusName(resp.Status)),
			trace.Int("rows", int64(rows)),
			trace.Int("queue_wait_ns", queueWait.Nanoseconds()),
		)
		if resp.Status != StatusOK {
			span.SetError(errors.New(resp.Msg))
		}
		span.End()
		s.requestEvent(span, req, resp.Status, rows, queueWait, admitted)
		if !respond(req.Op, resp) {
			return
		}
	}
}

// requestEvent emits the per-request wide event when Config.RequestLog
// is set: one record joining the request's trace ID with what happened
// to it. Failures log at Warn so they surface even at the default
// level.
func (s *Server) requestEvent(span *trace.Span, req Request, status byte, rows int, queueWait time.Duration, start time.Time) {
	if !s.cfg.RequestLog {
		return
	}
	traceID := req.TraceID
	if span != nil {
		traceID = span.Trace
	}
	level := slog.LevelInfo
	if status != StatusOK {
		level = slog.LevelWarn
	}
	s.log.LogAttrs(context.Background(), level, "request",
		slog.String("trace_id", traceID.String()),
		slog.String("op", OpName(req.Op)),
		slog.String("table", req.Table),
		slog.Int("rows", rows),
		slog.Int64("queue_wait_ns", queueWait.Nanoseconds()),
		slog.Int64("duration_ns", time.Since(start).Nanoseconds()),
		slog.String("status", statusName(status)),
	)
}

// OpName names a wire opcode for spans, logs and tooling.
func OpName(op byte) string {
	switch op {
	case OpPing:
		return "ping"
	case OpCreateTable:
		return "create_table"
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpUpdate:
		return "update"
	case OpBulkLoad:
		return "bulk_load"
	case OpSelect:
		return "select"
	case OpCheckpoint:
		return "checkpoint"
	case OpRows:
		return "rows"
	case OpTables:
		return "tables"
	case OpApplyLayout:
		return "apply_layout"
	case OpAdaptive:
		return "adaptive"
	default:
		return fmt.Sprintf("op_%d", op)
	}
}

// statusName names a wire status for spans and logs.
func statusName(status byte) string {
	switch status {
	case StatusOK:
		return "ok"
	case StatusEngineErr:
		return "engine_err"
	case StatusOverloaded:
		return "overloaded"
	case StatusBadRequest:
		return "bad_request"
	case StatusDraining:
		return "draining"
	default:
		return fmt.Sprintf("status_%d", status)
	}
}

// handle executes one decoded request against the engine. ctx carries
// the engine span for traced requests.
func (s *Server) handle(ctx context.Context, req Request) Response {
	fail := func(err error) Response {
		return Response{Status: StatusEngineErr, Msg: err.Error()}
	}
	switch req.Op {
	case OpPing:
		return Response{}
	case OpCreateTable:
		if err := s.engine.CreateTable(ctx, req.Table, req.Fields); err != nil {
			return fail(err)
		}
	case OpInsert:
		if err := s.engine.Insert(ctx, req.Table, req.Row); err != nil {
			return fail(err)
		}
	case OpDelete:
		if err := s.engine.Delete(ctx, req.Table, req.RowID); err != nil {
			return fail(err)
		}
	case OpUpdate:
		if err := s.engine.Update(ctx, req.Table, req.RowID, req.Row); err != nil {
			return fail(err)
		}
	case OpBulkLoad:
		if err := s.engine.BulkLoad(ctx, req.Table, req.Rows); err != nil {
			return fail(err)
		}
	case OpSelect:
		res, err := s.engine.Select(ctx, req.Table, req.Predicates, req.Project)
		if err != nil {
			return fail(err)
		}
		return Response{IDs: res.IDs, Rows: res.Rows}
	case OpCheckpoint:
		if err := s.engine.Checkpoint(ctx); err != nil {
			return fail(err)
		}
	case OpRows:
		n, err := s.engine.Rows(req.Table)
		if err != nil {
			return fail(err)
		}
		return Response{Count: uint64(n)}
	case OpTables:
		return Response{Names: s.engine.Tables()}
	case OpApplyLayout:
		if err := s.engine.ApplyLayout(req.Table, req.Layout); err != nil {
			return fail(err)
		}
	case OpAdaptive:
		if err := s.engine.Adaptive(req.Sub == AdaptiveEnable); err != nil {
			return fail(err)
		}
	default:
		return Response{Status: StatusBadRequest, Msg: fmt.Sprintf("unknown opcode %d", req.Op)}
	}
	return Response{}
}

// Shutdown drains the server gracefully: stop accepting, wake idle
// sessions (their next read returns immediately and they close after
// answering StatusDraining to anything already in their buffers), wait
// up to DrainTimeout for inflight requests to finish writing their
// responses, then force-close whatever remains. It does NOT close the
// engine — the owner does that after Shutdown returns, so no request
// is mid-flight when the WAL and merge scheduler wind down.
//
// The returned error is non-nil only when the drain timed out and
// connections had to be force-closed.
func (s *Server) Shutdown() error {
	s.draining.Store(true)
	s.mu.Lock()
	for l := range s.listeners {
		l.Close()
	}
	// Nudge every blocked read awake; sessions mid-request finish and
	// notice the drain flag before reading again.
	for c := range s.conns {
		c.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-time.After(s.cfg.DrainTimeout):
	}
	s.mu.Lock()
	n := len(s.conns)
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	// Do not wait for the session goroutines themselves: one may be
	// wedged inside an engine call that force-closing its socket cannot
	// interrupt. It cleans itself up whenever the engine returns.
	return fmt.Errorf("server: drain timed out, force-closed %d sessions", n)
}
