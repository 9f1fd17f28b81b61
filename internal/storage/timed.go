package storage

import (
	"strings"
	"sync/atomic"
	"time"

	"tierdb/internal/device"
	"tierdb/internal/metrics"
)

// Clock accumulates modeled device time. It is the virtual clock the
// reproduction uses instead of the paper's physical testbed: every page
// access charges the modeled latency of the configured device, and
// experiment harnesses report Clock totals as "measured" runtimes.
// All methods are safe for concurrent use. A query's scan workers do
// not touch it while they run: the executor counts their page reads and
// charges them once, through TimedStore.ChargeReads.
type Clock struct {
	nanos atomic.Int64
	reads atomic.Int64
}

// Advance adds d to the accumulated virtual time.
func (c *Clock) Advance(d time.Duration) {
	c.nanos.Add(int64(d))
}

// Elapsed returns the accumulated virtual time.
func (c *Clock) Elapsed() time.Duration {
	return time.Duration(c.nanos.Load())
}

// Reads returns the number of timed page reads.
func (c *Clock) Reads() int64 { return c.reads.Load() }

// Reset zeroes the clock.
func (c *Clock) Reset() {
	c.nanos.Store(0)
	c.reads.Store(0)
}

// TimedStore wraps a Store and charges modeled device latencies for
// page accesses to a Clock: ReadPage and WritePage one access at a time
// (a single access stream), ChargeReads for reads made through Untimed.
type TimedStore struct {
	inner   Store
	profile device.Profile
	clock   *Clock
	m       storeInstruments
}

// storeInstruments holds the per-device metric handles; all handles are
// nil (no-op) on unobserved stores.
type storeInstruments struct {
	pageReads      *metrics.Counter
	pageWrites     *metrics.Counter
	readBytes      *metrics.Counter
	writeBytes     *metrics.Counter
	modeledReadNs  *metrics.Counter
	modeledWriteNs *metrics.Counter
}

// Observe registers per-device IO instruments named
// device.<name>.{page_reads,page_writes,read_bytes,write_bytes,
// modeled_read_ns,modeled_write_ns}, where <name> is the device
// profile's name sanitized for the metric namespace ("3D XPoint" →
// "3d_xpoint"). A nil registry leaves the store unobserved.
func (s *TimedStore) Observe(r *metrics.Registry) {
	p := "device." + metricName(s.profile.Name)
	s.m = storeInstruments{
		pageReads:      r.Counter(p + ".page_reads"),
		pageWrites:     r.Counter(p + ".page_writes"),
		readBytes:      r.Counter(p + ".read_bytes"),
		writeBytes:     r.Counter(p + ".write_bytes"),
		modeledReadNs:  r.Counter(p + ".modeled_read_ns"),
		modeledWriteNs: r.Counter(p + ".modeled_write_ns"),
	}
}

// metricName lowercases a device name and folds every non-alphanumeric
// run into underscores so it can serve as a metric-name segment.
func metricName(name string) string {
	if name == "" {
		return "unknown"
	}
	var b strings.Builder
	for _, r := range strings.ToLower(name) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// NewTimedStore wraps inner with the timing model of profile, charging
// time to clock.
func NewTimedStore(inner Store, profile device.Profile, clock *Clock) *TimedStore {
	return &TimedStore{inner: inner, profile: profile, clock: clock}
}

// Profile returns the device profile used for timing.
func (s *TimedStore) Profile() device.Profile { return s.profile }

// Clock returns the virtual clock time is charged to.
func (s *TimedStore) Clock() *Clock { return s.clock }

// Untimed returns the wrapped store. Reads through it charge nothing
// until they are passed to ChargeReads.
func (s *TimedStore) Untimed() Store { return s.inner }

// ChargeReads charges n page reads that `streams` concurrent access
// streams made through Untimed, and returns the device time charged.
// Each read costs the device's latency at queue depth `streams`; the
// streams overlap, so the clock advances by the per-stream share of the
// total, rounded up — the modeled wall-clock of a phase whose streams
// are kept balanced (the executor's morsel scheduling does that; the
// mean rather than the literal slowest stream keeps the model
// deterministic however the Go scheduler hands out the work). The read
// count and the device.* counters advance by the full n reads and their
// full modeled latency.
func (s *TimedStore) ChargeReads(n int64, streams int) time.Duration {
	if n <= 0 {
		return 0
	}
	streams = max(streams, 1)
	total := time.Duration(n) * s.profile.RandomReadTime(1, streams)
	d := (total + time.Duration(streams) - 1) / time.Duration(streams)
	s.clock.Advance(d)
	s.clock.reads.Add(n)
	s.m.pageReads.Add(n)
	s.m.readBytes.Add(n * PageSize)
	s.m.modeledReadNs.Add(int64(total))
	return d
}

// ReadPage implements Store, charging one random-read latency.
func (s *TimedStore) ReadPage(id PageID, buf []byte) error {
	s.ChargeReads(1, 1)
	return s.inner.ReadPage(id, buf)
}

// WritePage implements Store, charging one write latency.
func (s *TimedStore) WritePage(id PageID, buf []byte) error {
	s.clock.Advance(s.profile.WriteLatency)
	s.m.pageWrites.Inc()
	s.m.writeBytes.Add(PageSize)
	s.m.modeledWriteNs.Add(int64(s.profile.WriteLatency))
	return s.inner.WritePage(id, buf)
}

// Allocate implements Store (untimed; allocation is metadata).
func (s *TimedStore) Allocate() (PageID, error) { return s.inner.Allocate() }

// FreePages forwards to the inner store's freelist (untimed metadata),
// implementing PageFreer when the inner store does.
func (s *TimedStore) FreePages(ids []PageID) error {
	if f, ok := s.inner.(PageFreer); ok {
		return f.FreePages(ids)
	}
	return nil
}

// NumPages implements Store.
func (s *TimedStore) NumPages() int64 { return s.inner.NumPages() }

// Close implements Store.
func (s *TimedStore) Close() error { return s.inner.Close() }
