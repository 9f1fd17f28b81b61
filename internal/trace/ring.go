package trace

import (
	"sort"

	"tierdb/internal/ring"
)

// Ring is the bounded lock-free ring of completed spans: a ring.Ring
// whose Add stamps Span.Seq, plus ByTrace. Spans are immutable after
// publish. A nil *Ring is valid and records nothing.
type Ring ring.Ring[Span]

// NewRing builds a ring holding up to capacity spans (minimum 1).
func NewRing(capacity int) *Ring {
	return (*Ring)(ring.New(capacity, func(s *Span) *uint64 { return &s.Seq }))
}

func (r *Ring) spans() *ring.Ring[Span] { return (*ring.Ring[Span])(r) }

// Add publishes s (stamping s.Seq), overwriting the oldest span once
// the ring is full. No-op on a nil ring or span.
func (r *Ring) Add(s *Span) { r.spans().Add(s) }

// Snapshot returns the ring's current spans, newest first.
func (r *Ring) Snapshot() []*Span { return r.spans().Snapshot() }

// ByTrace returns all spans of one trace still present in the ring,
// ordered by start time (ties broken by publish sequence so the order
// is total).
func (r *Ring) ByTrace(id TraceID) []*Span {
	if id == 0 {
		return nil
	}
	var out []*Span
	for _, s := range r.Snapshot() {
		if s.Trace == id {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].StartNs != out[b].StartNs {
			return out[a].StartNs < out[b].StartNs
		}
		return out[a].Seq < out[b].Seq
	})
	return out
}
