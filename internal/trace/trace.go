// Package trace is tierdb's lightweight distributed-tracing layer: a
// span model (trace/span IDs, parent links, start/end nanoseconds,
// typed attributes) with context.Context propagation and a race-safe
// bounded span ring (the lock-free internal/ring, shared with the
// query-trace rings of internal/metrics).
//
// The design optimizes for the unsampled path: the sampling decision is
// made once, when a root span would be created, and an unsampled trace
// is represented by a nil *Span. Every Span method is nil-safe and
// returns immediately, so instrumented call sites need no branches and
// always-on tracing costs approximately nothing when unsampled (see
// BenchmarkTracingOverhead).
//
// Spans follow the same ownership rule as metrics.Trace: a span is
// written by the goroutine driving it (SetAttr/SetError/End) and only
// published to the ring — and thereby to readers — by End, whose atomic
// pointer store is the happens-before edge. Concurrent goroutines get
// their own child spans; they never write a shared one.
package trace

import (
	"context"
	"fmt"
	"strconv"
	"sync/atomic"
	"time"
)

// TraceID identifies one end-to-end request across processes. The zero
// value means "not traced" and is never generated.
type TraceID uint64

// SpanID identifies one span within a trace. The zero value means "no
// parent" on root spans and is never generated as a span's own ID.
type SpanID uint64

// String renders the ID as 16 lowercase hex digits (the wire and URL
// form used by /trace/{id}).
func (id TraceID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// String renders the ID as 16 lowercase hex digits.
func (id SpanID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// MarshalJSON renders the ID as a hex string so JSON consumers are not
// exposed to 64-bit integer precision loss.
func (id TraceID) MarshalJSON() ([]byte, error) {
	return strconv.AppendQuote(nil, id.String()), nil
}

// MarshalJSON renders the ID as a hex string.
func (id SpanID) MarshalJSON() ([]byte, error) {
	return strconv.AppendQuote(nil, id.String()), nil
}

// UnmarshalJSON accepts the hex-string form produced by MarshalJSON.
func (id *TraceID) UnmarshalJSON(b []byte) error {
	s, err := strconv.Unquote(string(b))
	if err != nil {
		return err
	}
	v, err := ParseTraceID(s)
	if err != nil {
		return err
	}
	*id = v
	return nil
}

// UnmarshalJSON accepts the hex-string form produced by MarshalJSON.
func (id *SpanID) UnmarshalJSON(b []byte) error {
	s, err := strconv.Unquote(string(b))
	if err != nil {
		return err
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return err
	}
	*id = SpanID(v)
	return nil
}

// ParseTraceID parses the hex form produced by TraceID.String. It
// rejects the zero ID, which never names a real trace.
func ParseTraceID(s string) (TraceID, error) {
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("trace: bad trace id %q: %w", s, err)
	}
	if v == 0 {
		return 0, fmt.Errorf("trace: bad trace id %q: zero", s)
	}
	return TraceID(v), nil
}

// Span is one timed operation in a trace. Fields are exported for JSON
// rendering; mutate them only through the methods, from the goroutine
// driving the span, before End.
type Span struct {
	// Seq is the span's position in the ring's publish sequence,
	// stamped by the ring at End (monotone, survives wrap-around).
	Seq uint64 `json:"seq"`
	// Trace is the trace this span belongs to.
	Trace TraceID `json:"trace_id"`
	// ID is the span's own identifier, unique within the trace.
	ID SpanID `json:"span_id"`
	// Parent is the parent span's ID (0 on root spans).
	Parent SpanID `json:"parent_id,omitempty"`
	// Name identifies the operation, dot-scoped ("client.send",
	// "server.request", "exec.query", "wal.fsync", ...).
	Name string `json:"name"`
	// StartNs and EndNs are wall-clock unix nanoseconds; EndNs is 0
	// until the span ends.
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`
	// Attrs are the span's typed attributes.
	Attrs []Attr `json:"attrs,omitempty"`
	// Err carries the operation's error text when it failed.
	Err string `json:"err,omitempty"`

	tracer *Tracer
}

// Tracer creates spans, makes the per-trace sampling decision and owns
// the ring completed spans are published into. A nil *Tracer is valid
// and records nothing.
type Tracer struct {
	ring *Ring
	// rate is the root-span sampling probability in [0,1].
	rate float64
	// rng is the splitmix64 state shared by ID generation and
	// sampling; one atomic add per draw makes it race-safe.
	rng atomic.Uint64
	// onEnd, when set, observes every span as it is published.
	onEnd atomic.Pointer[func(*Span)]
}

// Options configures a Tracer.
type Options struct {
	// SampleRate is the fraction of root spans that are traced:
	// 0 disables tracing, 1 traces everything. Propagated traces
	// (StartRemote) are always recorded — the sampling decision was
	// made upstream.
	SampleRate float64
	// RingSize bounds the span ring (default 4096 spans).
	RingSize int
	// Seed overrides the RNG seed (0 = derive from the clock); tests
	// use it for deterministic IDs.
	Seed uint64
}

// DefaultRingSize is the span ring capacity when Options.RingSize is 0.
const DefaultRingSize = 4096

// New builds a Tracer. Rate is clamped to [0,1].
func New(opts Options) *Tracer {
	rate := opts.SampleRate
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	size := opts.RingSize
	if size <= 0 {
		size = DefaultRingSize
	}
	t := &Tracer{ring: NewRing(size), rate: rate}
	seed := opts.Seed
	if seed == 0 {
		seed = uint64(time.Now().UnixNano()) ^ 0x9e3779b97f4a7c15
	}
	t.rng.Store(seed)
	return t
}

// splitmix64 finalizer: a full-avalanche mix of the claimed counter
// value, giving well-distributed 64-bit IDs from sequential states.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// next draws one nonzero pseudo-random 64-bit value.
func (t *Tracer) next() uint64 {
	for {
		if v := mix64(t.rng.Add(1)); v != 0 {
			return v
		}
	}
}

// sample makes one root sampling decision.
func (t *Tracer) sample() bool {
	if t == nil || t.rate <= 0 {
		return false
	}
	if t.rate >= 1 {
		return true
	}
	// 53 bits of the draw give a uniform float in [0,1).
	return float64(t.next()>>11)/(1<<53) < t.rate
}

// SampleRate returns the configured root sampling rate (0 on nil).
func (t *Tracer) SampleRate() float64 {
	if t == nil {
		return 0
	}
	return t.rate
}

// Ring returns the tracer's span ring (nil on a nil tracer).
func (t *Tracer) Ring() *Ring {
	if t == nil {
		return nil
	}
	return t.ring
}

// SetOnEnd installs fn to observe every span as it ends (nil clears).
// Used by consumers that want to track spans — e.g. loadgen keeping the
// slowest request — without scanning the ring.
func (t *Tracer) SetOnEnd(fn func(*Span)) {
	if t == nil {
		return
	}
	if fn == nil {
		t.onEnd.Store(nil)
		return
	}
	t.onEnd.Store(&fn)
}

// Start begins a new root span, making the sampling decision: it
// returns nil — a valid span recording nothing — when the trace is not
// sampled.
func (t *Tracer) Start(name string, attrs ...Attr) *Span {
	if !t.sample() {
		// The unsampled path must cost nothing: copyAttrs (not a
		// retained reference) below is what lets the caller's varargs
		// slice stay on its stack, so this early return allocates zero.
		return nil
	}
	return &Span{
		Trace:   TraceID(t.next()),
		ID:      SpanID(t.next()),
		Name:    name,
		StartNs: time.Now().UnixNano(),
		Attrs:   copyAttrs(attrs),
		tracer:  t,
	}
}

// copyAttrs clones the varargs attribute slice before a span retains
// it. Retaining the parameter directly would make it escape at every
// call site — including the ~100% of calls that are unsampled and
// return nil — turning the "tracing off" hot path into one heap
// allocation per request.
func copyAttrs(attrs []Attr) []Attr {
	if len(attrs) == 0 {
		return nil
	}
	return append([]Attr(nil), attrs...)
}

// StartRemote begins a span continuing a trace propagated from another
// process (the wire header). The upstream peer already made the
// sampling decision by sending the header, so the span is always
// recorded. Returns nil when the tracer is nil or id is zero.
func (t *Tracer) StartRemote(id TraceID, parent SpanID, name string, attrs ...Attr) *Span {
	if t == nil || id == 0 {
		return nil
	}
	return &Span{
		Trace:   id,
		ID:      SpanID(t.next()),
		Parent:  parent,
		Name:    name,
		StartNs: time.Now().UnixNano(),
		Attrs:   copyAttrs(attrs),
		tracer:  t,
	}
}

// Child begins a child span of s starting now (nil-safe: a nil parent
// yields a nil child).
func (s *Span) Child(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	return &Span{
		Trace:   s.Trace,
		ID:      SpanID(s.tracer.next()),
		Parent:  s.ID,
		Name:    name,
		StartNs: time.Now().UnixNano(),
		Attrs:   copyAttrs(attrs),
		tracer:  s.tracer,
	}
}

// ChildAt records an already-completed child span with explicit
// timestamps and publishes it immediately. It is how post-hoc
// instrumentation — converting an exec metrics.Trace into a span
// family — lands measured sub-operations in the tree. No-op on nil.
func (s *Span) ChildAt(name string, startNs, endNs int64, attrs ...Attr) {
	if s == nil {
		return
	}
	c := &Span{
		Trace:   s.Trace,
		ID:      SpanID(s.tracer.next()),
		Parent:  s.ID,
		Name:    name,
		StartNs: startNs,
		EndNs:   endNs,
		Attrs:   copyAttrs(attrs),
		tracer:  s.tracer,
	}
	s.tracer.publish(c)
}

// SetAttr appends typed attributes (no-op on nil).
func (s *Span) SetAttr(attrs ...Attr) {
	if s != nil {
		s.Attrs = append(s.Attrs, attrs...)
	}
}

// SetError records the operation's failure (no-op on nil or nil err).
func (s *Span) SetError(err error) {
	if s != nil && err != nil {
		s.Err = err.Error()
	}
}

// End stamps the span's end time and publishes it to the tracer's
// ring. Safe to call once per span; no-op on nil.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.EndNs = time.Now().UnixNano()
	if s.EndNs < s.StartNs {
		// A clock step backwards would break child-within-parent
		// invariants downstream; clamp to a zero-length span.
		s.EndNs = s.StartNs
	}
	s.tracer.publish(s)
}

// EndAt is End with an explicit timestamp (no-op on nil).
func (s *Span) EndAt(ns int64) {
	if s == nil {
		return
	}
	if ns < s.StartNs {
		ns = s.StartNs
	}
	s.EndNs = ns
	s.tracer.publish(s)
}

// Duration returns the span's wall duration (0 while unfinished or on
// nil).
func (s *Span) Duration() time.Duration {
	if s == nil || s.EndNs == 0 {
		return 0
	}
	return time.Duration(s.EndNs - s.StartNs)
}

// publish lands a completed span in the ring and runs the OnEnd hook.
func (t *Tracer) publish(s *Span) {
	if t == nil {
		return
	}
	t.ring.Add(s)
	if fn := t.onEnd.Load(); fn != nil {
		(*fn)(s)
	}
}

// ctxKey keys the current span in a context.Context.
type ctxKey struct{}

// NewContext returns ctx carrying s as the current span. A nil span
// returns ctx unchanged, so unsampled requests pay no context
// allocation.
func NewContext(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// FromContext returns the current span, or nil when ctx carries none
// (including a nil ctx).
func FromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}
