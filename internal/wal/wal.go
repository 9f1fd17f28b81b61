package wal

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"tierdb/internal/codec"
	"tierdb/internal/metrics"
	"tierdb/internal/mvcc"
	"tierdb/internal/schema"
	"tierdb/internal/trace"
)

// SyncPolicy selects when appended records become durable.
type SyncPolicy int

const (
	// SyncAlways fsyncs before acknowledging every commit, with leader-
	// based group commit: concurrent committers share one fsync. Zero
	// committed-row loss at any crash point.
	SyncAlways SyncPolicy = iota
	// SyncGroup acknowledges commits immediately and fsyncs from a
	// background flusher every GroupInterval: a bounded loss window in
	// exchange for write latency, like asynchronous commit modes in
	// production engines.
	SyncGroup
	// SyncOff never fsyncs the log explicitly; crash durability is
	// whatever the OS flushed on its own. Checkpoints still sync.
	SyncOff
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncGroup:
		return "group"
	case SyncOff:
		return "off"
	}
	return fmt.Sprintf("policy-%d", int(p))
}

// DefaultGroupInterval is the SyncGroup flush cadence when
// Options.GroupInterval is zero.
const DefaultGroupInterval = 2 * time.Millisecond

const (
	segPrefix = "wal-"
	segSuffix = ".log"
	// SnapSuffix marks checkpoint snapshot files in the WAL directory.
	SnapSuffix = ".snap"
	tmpSuffix  = ".tmp"
)

func segName(seq int) string { return fmt.Sprintf("%s%08d%s", segPrefix, seq, segSuffix) }

// segSeq parses a segment file name, returning -1 for non-segments.
func segSeq(name string) int {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return -1
	}
	var seq int
	if _, err := fmt.Sscanf(name[len(segPrefix):len(name)-len(segSuffix)], "%08d", &seq); err != nil {
		return -1
	}
	return seq
}

// Options configures a Log.
type Options struct {
	// FS is the filesystem to write through; nil selects OSFS.
	FS FS
	// Dir is the log directory (segments + checkpoint snapshots).
	Dir string
	// Policy selects the sync policy; zero value is SyncAlways.
	Policy SyncPolicy
	// GroupInterval is the SyncGroup flush cadence; 0 selects
	// DefaultGroupInterval.
	GroupInterval time.Duration
	// Registry receives the wal.* instruments; nil disables them.
	Registry *metrics.Registry
}

// Log is a segmented, CRC-framed write-ahead log. Appends serialize
// under one mutex — commit timestamps are allocated inside it, so log
// order always equals commit-timestamp order — while fsyncs run under a
// separate mutex so a sync leader batches every record appended before
// it acquires the file (group commit).
type Log struct {
	fs         FS
	dir        string
	policy     SyncPolicy
	groupEvery time.Duration

	mu        sync.Mutex // append/rotate critical section
	f         File
	seg       int
	appendSeq uint64 // records appended, monotonically
	scratch   []byte // the last frame's buffer, kept unless over codec.MaxKeptBuffer
	closed    bool

	syncMu    sync.Mutex // fsync critical section; never taken under mu
	syncedSeq uint64

	flushStop chan struct{}
	flushDone chan struct{}

	mAppends *metrics.Counter
	mBytes   *metrics.Counter
	mFsyncs  *metrics.Counter
	mChkpts  *metrics.Counter
}

// Open creates a Log appending to a fresh segment after any existing
// ones. Run Replay first: Open never reads old segments, it only picks
// the next segment number, so un-replayed records would be stranded
// (and eventually deleted by a checkpoint).
func Open(opts Options) (*Log, error) {
	if opts.FS == nil {
		opts.FS = OSFS{}
	}
	if opts.GroupInterval <= 0 {
		opts.GroupInterval = DefaultGroupInterval
	}
	if err := opts.FS.MkdirAll(opts.Dir); err != nil {
		return nil, fmt.Errorf("wal: mkdir %s: %w", opts.Dir, err)
	}
	names, err := opts.FS.ReadDir(opts.Dir)
	if err != nil {
		return nil, fmt.Errorf("wal: list %s: %w", opts.Dir, err)
	}
	next := 0
	for _, name := range names {
		if seq := segSeq(name); seq >= next {
			next = seq + 1
		}
	}
	l := &Log{
		fs:         opts.FS,
		dir:        opts.Dir,
		policy:     opts.Policy,
		groupEvery: opts.GroupInterval,
		seg:        next,
		mAppends:   opts.Registry.Counter("wal.appends"),
		mBytes:     opts.Registry.Counter("wal.bytes"),
		mFsyncs:    opts.Registry.Counter("wal.fsyncs"),
		mChkpts:    opts.Registry.Counter("wal.checkpoints"),
	}
	if err := l.openSegmentLocked(); err != nil {
		return nil, err
	}
	if l.policy == SyncGroup {
		l.flushStop = make(chan struct{})
		l.flushDone = make(chan struct{})
		go l.flushLoop()
	}
	return l, nil
}

// openSegmentLocked creates segment l.seg and makes it durable in the
// directory; callers hold l.mu (or have exclusive access).
func (l *Log) openSegmentLocked() error {
	f, err := l.fs.Create(joinDir(l.dir, segName(l.seg)))
	if err != nil {
		return fmt.Errorf("wal: create segment %d: %w", l.seg, err)
	}
	if err := l.fs.SyncDir(l.dir); err != nil {
		f.Close()
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	l.f = f
	return nil
}

// append frames rec onto the current segment and returns the record's
// append sequence number for syncUpTo.
func (l *Log) append(rec Record) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendLocked(rec)
}

func (l *Log) appendLocked(rec Record) (uint64, error) {
	if l.closed {
		return 0, fmt.Errorf("wal: log closed")
	}
	// The payload is encoded after room for the longest header, and the
	// header is written in place just before it.
	var hdr [frameHeaderMax]byte
	buf := encodePayload(append(l.scratch[:0], hdr[:]...), rec)
	h := codec.AppendFrameHeader(hdr[:0], buf[frameHeaderMax:])
	frame := buf[frameHeaderMax-len(h):]
	copy(frame, h)
	l.scratch = buf
	if cap(buf) > codec.MaxKeptBuffer {
		l.scratch = nil // a bulk load's record is not kept for the next commit
	}
	if _, err := l.f.Write(frame); err != nil {
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	l.appendSeq++
	l.mAppends.Inc()
	l.mBytes.Add(int64(len(frame)))
	return l.appendSeq, nil
}

// syncUpTo makes every record up to seq durable. The first committer
// to take syncMu becomes the leader and syncs everything appended so
// far; later committers find syncedSeq already past their record.
func (l *Log) syncUpTo(seq uint64) error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	if l.syncedSeq >= seq {
		return nil
	}
	l.mu.Lock()
	f, cover := l.f, l.appendSeq
	l.mu.Unlock()
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.mFsyncs.Inc()
	if cover > l.syncedSeq {
		l.syncedSeq = cover
	}
	return nil
}

// afterAppend applies the sync policy to a freshly appended record.
func (l *Log) afterAppend(seq uint64) error {
	if l.policy == SyncAlways {
		return l.syncUpTo(seq)
	}
	return nil
}

// flushLoop is the SyncGroup background flusher.
func (l *Log) flushLoop() {
	defer close(l.flushDone)
	tick := time.NewTicker(l.groupEvery)
	defer tick.Stop()
	for {
		select {
		case <-l.flushStop:
			return
		case <-tick.C:
			l.mu.Lock()
			seq := l.appendSeq
			l.mu.Unlock()
			if seq > 0 {
				l.syncUpTo(seq) // a crashed FS just stops flushing
			}
		}
	}
}

// AppendCommit implements mvcc.Durability: it logs one transaction's
// redo ops as a single atomic commit record. alloc runs inside the
// append critical section, so the commit-timestamp order of the log is
// exactly its record order — replay never needs to sort.
//
// A trace span in ctx gets "wal.append" and (under SyncAlways)
// "wal.fsync" children, splitting a traced commit's latency into
// serialization-under-lock and durability wait. The fsync child covers
// the whole syncUpTo — including time spent waiting on a group-commit
// leader — because that wait IS the request's durability latency.
func (l *Log) AppendCommit(ctx context.Context, alloc func() mvcc.Timestamp, ops []mvcc.RedoOp) (mvcc.Timestamp, error) {
	parent := trace.FromContext(ctx)
	appendSpan := parent.Child("wal.append")
	l.mu.Lock()
	ts := alloc()
	seq, err := l.appendLocked(Record{Kind: kindCommit, Ts: uint64(ts), Ops: ops})
	l.mu.Unlock()
	appendSpan.SetError(err)
	appendSpan.End()
	if err != nil {
		return ts, err
	}
	if l.policy == SyncAlways {
		fsyncSpan := parent.Child("wal.fsync")
		err = l.syncUpTo(seq)
		fsyncSpan.SetError(err)
		fsyncSpan.End()
		return ts, err
	}
	return ts, l.afterAppend(seq)
}

// AppendCreateTable logs a table creation.
func (l *Log) AppendCreateTable(name string, fields []schema.Field) error {
	seq, err := l.append(Record{Kind: kindCreateTable, Table: name, Fields: fields})
	if err != nil {
		return err
	}
	return l.afterAppend(seq)
}

// AppendLayout logs a layout change (per-column DRAM residency).
func (l *Log) AppendLayout(name string, layout []bool) error {
	seq, err := l.append(Record{Kind: kindLayout, Table: name, Layout: layout})
	if err != nil {
		return err
	}
	return l.afterAppend(seq)
}

// AppendIndex logs an index creation over the given key columns.
func (l *Log) AppendIndex(name string, cols []int) error {
	seq, err := l.append(Record{Kind: kindIndex, Table: name, Cols: cols})
	if err != nil {
		return err
	}
	return l.afterAppend(seq)
}

// BeginCheckpoint starts a checkpoint: it seals the current segment
// (sync + close) and opens a fresh one, so every record in sealed
// segments carries a timestamp allocated before this call. The caller
// then quiesces the transaction manager for the checkpoint timestamp —
// which therefore covers every sealed record — writes it via
// AppendCheckpointBegin, snapshots each table with WriteSnapshot and
// finishes with EndCheckpoint.
func (l *Log) BeginCheckpoint() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: log closed")
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: seal segment %d: %w", l.seg, err)
	}
	l.mFsyncs.Inc()
	l.f.Close()
	l.seg++
	if err := l.openSegmentLocked(); err != nil {
		return err
	}
	l.syncedSeq = l.appendSeq
	return nil
}

// AppendCheckpointBegin logs that a checkpoint at ts has started; purely
// diagnostic (recovery keys off checkpoint-end), but it makes the log
// self-explaining in tooling.
func (l *Log) AppendCheckpointBegin(ts mvcc.Timestamp) error {
	seq, err := l.append(Record{Kind: kindCheckpointBegin, Ts: uint64(ts)})
	if err != nil {
		return err
	}
	return l.afterAppend(seq)
}

// WriteSnapshot publishes one checkpoint snapshot in the log directory
// with WriteFile. name must end in SnapSuffix.
func (l *Log) WriteSnapshot(name string, write func(io.Writer) error) error {
	if !strings.HasSuffix(name, SnapSuffix) {
		return fmt.Errorf("wal: snapshot name %q must end in %s", name, SnapSuffix)
	}
	return WriteFile(l.fs, l.dir, name, write)
}

// EndCheckpoint completes a checkpoint at ts: it durably logs the
// checkpoint-end record (synced regardless of policy — it licenses
// truncation) and then deletes all sealed segments, oldest first, so a
// crash mid-deletion always leaves a contiguous log suffix.
func (l *Log) EndCheckpoint(ts mvcc.Timestamp) error {
	seq, err := l.append(Record{Kind: kindCheckpointEnd, Ts: uint64(ts)})
	if err != nil {
		return err
	}
	if err := l.syncUpTo(seq); err != nil {
		return err
	}
	l.mu.Lock()
	current := l.seg
	l.mu.Unlock()
	names, err := l.fs.ReadDir(l.dir)
	if err != nil {
		return fmt.Errorf("wal: list for truncation: %w", err)
	}
	var old []int
	for _, name := range names {
		if s := segSeq(name); s >= 0 && s < current {
			old = append(old, s)
		}
	}
	sort.Ints(old)
	for _, s := range old {
		if err := l.fs.Remove(joinDir(l.dir, segName(s))); err != nil {
			return fmt.Errorf("wal: truncate segment %d: %w", s, err)
		}
	}
	if len(old) > 0 {
		if err := l.fs.SyncDir(l.dir); err != nil {
			return fmt.Errorf("wal: sync dir: %w", err)
		}
	}
	l.mChkpts.Inc()
	return nil
}

// Sync forces everything appended so far durable, whatever the policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	seq := l.appendSeq
	l.mu.Unlock()
	if seq == 0 {
		return nil
	}
	return l.syncUpTo(seq)
}

// Close stops the flusher, syncs and closes the current segment.
// Appends after Close fail.
func (l *Log) Close() error {
	if l.flushStop != nil {
		close(l.flushStop)
		<-l.flushDone
		l.flushStop = nil
	}
	var syncErr error
	if l.policy != SyncOff {
		syncErr = l.Sync()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if err := l.f.Close(); err != nil && syncErr == nil {
		syncErr = err
	}
	return syncErr
}
