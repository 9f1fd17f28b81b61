package metrics

import "tierdb/internal/ring"

// TraceEntry is one captured query execution in a TraceRing: the trace
// itself plus wall-clock context the executor measured around it.
type TraceEntry struct {
	// Seq is the entry's position in the capture sequence (monotone,
	// starts at 0); it survives ring wrap-around, so consumers can tell
	// how many entries were dropped between two snapshots.
	Seq uint64 `json:"seq"`
	// UnixNano is the wall-clock start time of the query.
	UnixNano int64 `json:"unix_nano"`
	// WallNs is the query's wall-clock duration in nanoseconds (as
	// opposed to the trace's modeled DRAMNs/DeviceNs).
	WallNs int64 `json:"wall_ns"`
	// Err carries the query's error text when it failed (the trace is
	// then partially filled).
	Err string `json:"err,omitempty"`
	// TraceID links the entry to its distributed trace (16 hex digits)
	// when the query ran under a sampled request span; /trace/{id} on
	// the observability server resolves it to the full span tree.
	TraceID string `json:"trace_id,omitempty"`
	// Trace is the per-query execution trace.
	Trace *Trace `json:"trace"`
}

// TraceRing is the bounded lock-free ring of recently captured traces
// (see ring.Ring): Add stamps the entry's Seq, Snapshot returns the
// entries newest first, and a nil *TraceRing records nothing.
type TraceRing = ring.Ring[TraceEntry]

// NewTraceRing builds a ring holding up to capacity entries
// (minimum 1).
func NewTraceRing(capacity int) *TraceRing {
	return ring.New(capacity, func(e *TraceEntry) *uint64 { return &e.Seq })
}
