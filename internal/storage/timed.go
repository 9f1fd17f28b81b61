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
// All methods are safe for concurrent use; concurrent workers each keep
// a share of the modeled time, mirroring per-thread wall-clock.
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

// Absorb merges per-worker clocks into c after a parallel phase of
// `workers` concurrent streams: the read count advances by the sum
// (every page access really happened), the elapsed time by the phase's
// modeled wall-clock — the slowest worker's share. Morsel-driven
// scheduling keeps workers balanced, so the slowest worker's time is
// the per-worker mean, charged here as sum/workers; using the mean
// rather than the literal maximum keeps the model deterministic even
// when the Go scheduler hands most morsels to one goroutine (few
// cores, GOMAXPROCS=1). Workers charging private clocks and one Absorb
// at the barrier replace a shared hot clock on the scan path.
func (c *Clock) Absorb(workers int, clocks ...*Clock) {
	if workers < 1 {
		workers = 1
	}
	var nanos, reads int64
	for _, w := range clocks {
		if w == nil {
			continue
		}
		nanos += w.nanos.Load()
		reads += w.reads.Load()
	}
	if nanos > 0 {
		c.nanos.Add((nanos + int64(workers) - 1) / int64(workers))
	}
	if reads > 0 {
		c.reads.Add(reads)
	}
}

// TimedStore wraps a Store and charges modeled device latencies for
// every page access to a Clock. Threads is the concurrency level the
// timing model assumes (queue-depth effects).
type TimedStore struct {
	inner   Store
	profile device.Profile
	clock   *Clock
	threads int
	m       storeInstruments
}

// storeInstruments holds the per-device metric handles. It is embedded
// by value, so Fork copies the handles and worker views feed the same
// instruments; all handles are nil (no-op) on unobserved stores.
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
// time to clock assuming `threads` concurrent access streams.
func NewTimedStore(inner Store, profile device.Profile, clock *Clock, threads int) *TimedStore {
	if threads < 1 {
		threads = 1
	}
	return &TimedStore{inner: inner, profile: profile, clock: clock, threads: threads}
}

// Profile returns the device profile used for timing.
func (s *TimedStore) Profile() device.Profile { return s.profile }

// Clock returns the virtual clock time is charged to.
func (s *TimedStore) Clock() *Clock { return s.clock }

// Fork returns a view of the store that charges the given clock and
// assumes `threads` concurrent access streams; the underlying device
// and page data are shared. Parallel scan workers each fork a private
// clock so device time accumulates without a shared hot counter, and
// the executor merges the forks back with Clock.Absorb.
func (s *TimedStore) Fork(clock *Clock, threads int) *TimedStore {
	if threads < 1 {
		threads = 1
	}
	return &TimedStore{inner: s.inner, profile: s.profile, clock: clock, threads: threads, m: s.m}
}

// ReadPage implements Store, charging one random-read latency.
func (s *TimedStore) ReadPage(id PageID, buf []byte) error {
	d := s.profile.RandomReadTime(1, s.threads)
	s.clock.Advance(d)
	s.clock.reads.Add(1)
	s.m.pageReads.Inc()
	s.m.readBytes.Add(PageSize)
	s.m.modeledReadNs.Add(int64(d))
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
