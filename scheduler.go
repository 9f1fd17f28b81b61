package tierdb

import (
	"errors"
	"sort"
	"sync"
	"time"

	"tierdb/internal/table"
)

// ErrClosed is returned by merge requests after DB.Close.
var ErrClosed = errors.New("tierdb: database closed")

// ErrMergeInProgress is returned by Table.Merge when another online
// merge of the same table is already in flight (for example one the
// scheduler started); the caller can retry once it drains.
var ErrMergeInProgress = table.ErrMergeInProgress

// DefaultMergeInterval is the scheduler's threshold-sweep cadence when
// thresholds are configured but no interval is given.
const DefaultMergeInterval = 100 * time.Millisecond

// scheduler is the database's one background goroutine, and the only
// place a main partition is rebuilt in the background: manual
// Table.MergeAsync requests, the ticker sweep that merges any table
// whose active delta has outgrown the configured thresholds, the
// adaptive placement ticks and the DB.AdaptOnce rendezvous all arrive
// in one select. Rebuilds are the table layer's online kind — they hold
// the table lock only for the freeze and swap instants — so background
// maintenance never stalls the workload it is cleaning up after.
//
// Running merges and adaptive applies (the same operation: an online
// merge, under the old or a new layout) on one goroutine serializes
// them across tables, which keeps the background DRAM spike to one
// shadow main; the table layer rejects overlap with a caller's own
// merge of the same table (ErrMergeInProgress).
type scheduler struct {
	db       *DB
	interval time.Duration
	rows     int
	bytes    int64
	adapt    *adaptiveScheduler
	merges   chan *Table     // MergeAsync requests
	adapts   chan chan error // AdaptOnce rendezvous
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// startScheduler launches the background goroutine for db.
func startScheduler(db *DB, cfg Config) *scheduler {
	s := &scheduler{
		db:       db,
		interval: cfg.MergeInterval,
		rows:     cfg.MergeDeltaRows,
		bytes:    cfg.MergeDeltaBytes,
		adapt:    newAdaptiveScheduler(db, cfg),
		// MergeAsync returns without waiting for the rebuild in progress;
		// past 64 queued requests it blocks until the loop takes one.
		merges: make(chan *Table, 64),
		adapts: make(chan chan error),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	if s.interval <= 0 {
		s.interval = DefaultMergeInterval
	}
	go s.loop()
	return s
}

func (s *scheduler) loop() {
	defer close(s.done)
	var sweep <-chan time.Time
	if s.rows > 0 || s.bytes > 0 {
		t := time.NewTicker(s.interval)
		defer t.Stop()
		sweep = t.C
	}
	adapt := time.NewTicker(s.adapt.interval)
	defer adapt.Stop()
	for {
		select {
		case <-s.stop:
			return
		case t := <-s.merges:
			s.merge(t)
		case <-sweep:
			for _, t := range s.db.tableList() {
				if s.due(t) {
					s.merge(t)
				}
			}
		case reply := <-s.adapts:
			s.adapt.cycle()
			reply <- nil
		case <-adapt.C:
			if s.adapt.enabled.Load() {
				s.adapt.cycle()
			}
		}
	}
}

// shutdown stops the goroutine and waits for an in-flight merge or
// adaptive cycle to finish; safe to call more than once.
func (s *scheduler) shutdown() {
	s.stopOnce.Do(func() { close(s.stop) })
	<-s.done
}

// tableList snapshots the open tables, ordered by name.
func (db *DB) tableList() []*Table {
	db.mu.Lock()
	defer db.mu.Unlock()
	tables := make([]*Table, 0, len(db.tables))
	for _, t := range db.tables {
		tables = append(tables, t)
	}
	sort.Slice(tables, func(i, j int) bool { return tables[i].Name() < tables[j].Name() })
	return tables
}

// due reports whether t's active delta has outgrown a threshold.
func (s *scheduler) due(t *Table) bool {
	if s.rows > 0 && t.inner.ActiveDeltaRows() >= s.rows {
		return true
	}
	return s.bytes > 0 && t.inner.DeltaBytes() >= s.bytes
}

// merge folds one table's delta. A concurrent manual merge is fine
// (ErrMergeInProgress); real failures are already counted by the
// table's merge.failures instrument and will be retried on the next
// sweep, which resumes from the still-frozen delta.
func (s *scheduler) merge(t *Table) {
	err := s.db.rebuild(t, "merge", t.inner.Merge)
	if err != nil && !errors.Is(err, table.ErrMergeInProgress) {
		s.db.log.Warn("scheduled merge failed", "table", t.Name(), "err", err)
	}
}

// rebuild is the tail every background rebuild of a main partition
// shares: run it, then checkpoint, so the rebuilt state (and, for an
// adaptive apply, the WAL-logged layout DDL) lands in durable snapshots
// and the write-ahead log truncates — recovery replays only the tail
// written since, and the paper's tiered layouts keep that
// snapshot-decode cost proportional to the MRC share. A failed
// checkpoint leaves the previous one intact; the log simply stays
// longer until the next rebuild retries. Returns op's error.
func (db *DB) rebuild(t *Table, what string, op func() error) error {
	if err := op(); err != nil {
		return err
	}
	if db.wal != nil {
		if err := db.Checkpoint(); err != nil {
			db.log.Warn("post-"+what+" checkpoint failed", "table", t.Name(), "err", err)
		}
	}
	return nil
}

// MergeAsync queues a background online merge of the table's delta and
// returns immediately; the scheduler performs the fold while readers
// and writers proceed. Returns ErrClosed after DB.Close.
func (t *Table) MergeAsync() error {
	// Check stop on its own first: the request channel is buffered, so
	// a combined select could accept the send after Close.
	select {
	case <-t.db.sched.stop:
		return ErrClosed
	default:
	}
	select {
	case <-t.db.sched.stop:
		return ErrClosed
	case t.db.sched.merges <- t:
		return nil
	}
}

// Merging reports whether an online merge of this table is in flight
// (its delta is split into frozen + active partitions).
func (t *Table) Merging() bool { return t.inner.Merging() }
