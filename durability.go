package tierdb

import (
	"fmt"
	"io"
	"slices"
	"time"

	"tierdb/internal/device"
	"tierdb/internal/mvcc"
	"tierdb/internal/persist"
	"tierdb/internal/schema"
	"tierdb/internal/table"
	"tierdb/internal/wal"
)

// SyncPolicy re-exports the write-ahead log's sync policy.
type SyncPolicy = wal.SyncPolicy

// Sync policies for Config.SyncPolicy.
const (
	// SyncAlways fsyncs before acknowledging every commit (group
	// committed: concurrent commits share one fsync). The default.
	SyncAlways = wal.SyncAlways
	// SyncGroup acknowledges immediately and fsyncs on a background
	// interval — a bounded loss window.
	SyncGroup = wal.SyncGroup
	// SyncOff leaves flushing to the OS entirely.
	SyncOff = wal.SyncOff
)

// openDurability recovers state from the WAL directory (checkpoint
// snapshots, then log replay), repairs the log, opens a fresh segment
// and threads the log into the commit path. Called by Open when
// Config.WALDir is set, before the scheduler starts.
func (db *DB) openDurability(cfg Config) error {
	fs := cfg.walFS
	if fs == nil {
		fs = wal.OSFS{}
	}
	if err := db.recover(fs, cfg.WALDir); err != nil {
		return err
	}
	log, err := wal.Open(wal.Options{
		FS:            fs,
		Dir:           cfg.WALDir,
		Policy:        cfg.SyncPolicy,
		GroupInterval: cfg.GroupCommitInterval,
		Registry:      db.registry,
	})
	if err != nil {
		return err
	}
	db.wal = log
	db.mgr.SetDurability(log)
	return nil
}

// recover rebuilds committed state: every checkpoint snapshot is loaded
// at its embedded snapshot timestamp, then the log replays on top,
// skipping per table whatever its snapshot already covers. A TIERDB03
// snapshot restores its main partition as stored: the MRCs' dictionaries
// and packed codes are read back into DRAM, the SSCG's pages are written
// back to the device undecoded, and only the indexes are built again —
// so a snapshot's restart cost follows its MRC share, the paper's
// reduced-recovery-time motivation. Log replay is reported via the
// wal.recovery_ns metric as modeled DRAM sequential-read time over the
// replayed bytes, which keeps the number machine-independent.
func (db *DB) recover(fs wal.FS, dir string) error {
	snaps, err := wal.ListSnapshots(fs, dir)
	if err != nil {
		return fmt.Errorf("tierdb: list snapshots: %w", err)
	}
	h := &replayHandler{db: db, snapTs: make(map[string]mvcc.Timestamp)}
	for _, name := range snaps {
		rc, err := fs.Open(dir + "/" + name)
		if err != nil {
			return fmt.Errorf("tierdb: open snapshot %s: %w", name, err)
		}
		inner, snapTs, err := persist.LoadAt(rc, db.tableOptions())
		rc.Close()
		if err != nil {
			return fmt.Errorf("tierdb: snapshot %s: %w", name, err)
		}
		db.addTable(inner)
		h.snapTs[inner.Name()] = snapTs
	}
	stats, err := wal.Replay(fs, dir, h)
	if err != nil {
		return err
	}
	db.mgr.AdvanceTo(stats.MaxTs)
	if db.registry != nil {
		db.registry.Counter("wal.replayed_records").Add(int64(stats.Records))
		db.registry.Counter("wal.replayed_bytes").Add(stats.Bytes)
		// Modeled, deterministic recovery time: DRAM sequential read of
		// the replayed log bytes (single threaded, as replay is).
		db.registry.Counter("wal.recovery_ns").Add(int64(device.DRAM.SequentialReadTime(stats.Bytes, 1) / time.Nanosecond))
	}
	return nil
}

// replayHandler applies decoded WAL records to the database. Ops at or
// below a table's snapshot timestamp are already in its checkpoint
// snapshot and replay idempotently as no-ops.
type replayHandler struct {
	db     *DB
	snapTs map[string]mvcc.Timestamp
}

func (h *replayHandler) table(name string) (*Table, error) {
	h.db.mu.Lock()
	defer h.db.mu.Unlock()
	if t, ok := h.db.tables[name]; ok {
		return t, nil
	}
	return nil, fmt.Errorf("tierdb: replay references unknown table %q", name)
}

func (h *replayHandler) CreateTable(name string, fields []schema.Field) error {
	h.db.mu.Lock()
	_, exists := h.db.tables[name]
	h.db.mu.Unlock()
	if exists {
		// Restored from a checkpoint snapshot already.
		return nil
	}
	s, err := schema.New(fields)
	if err != nil {
		return fmt.Errorf("tierdb: replay create table %q: %w", name, err)
	}
	inner, err := table.New(name, s, h.db.tableOptions())
	if err != nil {
		return err
	}
	h.db.addTable(inner)
	return nil
}

func (h *replayHandler) ApplyLayout(name string, layout []bool) error {
	t, err := h.table(name)
	if err != nil {
		return err
	}
	return t.inner.ApplyLayout(layout)
}

func (h *replayHandler) CreateIndex(name string, cols []int) error {
	t, err := h.table(name)
	if err != nil {
		return err
	}
	if len(cols) == 1 {
		return t.inner.CreateIndex(cols[0])
	}
	return t.inner.CreateCompositeIndex(cols)
}

// Commit re-applies one logged commit table by table, each table's
// inserts as one batch.
func (h *replayHandler) Commit(ts mvcc.Timestamp, ops []mvcc.RedoOp) error {
	var done []string
	for _, op := range ops {
		if slices.Contains(done, op.Table) || ts <= h.snapTs[op.Table] {
			continue // replayed already, or covered by the table's checkpoint snapshot
		}
		done = append(done, op.Table)
		t, err := h.table(op.Table)
		if err != nil {
			return err
		}
		if err := t.inner.ReplayCommit(ts, ops); err != nil {
			return err
		}
	}
	return nil
}

func (h *replayHandler) Checkpoint(mvcc.Timestamp) {}

// addTable registers a recovered or restored engine table under the
// public handle.
func (db *DB) addTable(inner *table.Table) *Table {
	t := newTableHandle(db, inner)
	db.mu.Lock()
	db.tables[inner.Name()] = t
	db.mu.Unlock()
	return t
}

// Checkpoint takes a durable, snapshot-consistent checkpoint of every
// table and truncates the write-ahead log: it seals the current log
// segment, quiesces the commit pipeline for an exact snapshot
// timestamp, writes each table's snapshot (temp file, fsync, rename,
// directory fsync), durably logs checkpoint-end and deletes the sealed
// segments. A snapshot writes each main partition's arrays as they are
// (dictionaries, packed codes, SSCG pages), so its cost is a copy, not a
// decode of every row. Restart cost afterwards is reading the MRCs back
// into DRAM and the SSCG pages back to the device, plus replaying only
// the log written since. No-op error when the database has no WAL.
//
// The scheduler checkpoints automatically after a scheduled
// merge; call this directly around bulk work or before shutdown.
func (db *DB) Checkpoint() error {
	if db.wal == nil {
		return fmt.Errorf("tierdb: no write-ahead log configured")
	}
	// Serialized: overlapping checkpoints could truncate a segment whose
	// records only a still-unwritten snapshot covers.
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	if err := db.wal.BeginCheckpoint(); err != nil {
		return err
	}
	// snapTs stays registered while the tables are written: a merge that
	// swaps meanwhile (BulkLoad and Table.Merge run outside the
	// scheduler) must not purge a row deleted after it.
	snapTs, release := db.mgr.QuiescedLastCommit()
	defer release()
	if err := db.wal.AppendCheckpointBegin(snapTs); err != nil {
		return err
	}
	for _, t := range db.tableList() {
		inner := t.inner
		err := db.wal.WriteSnapshot(inner.Name()+wal.SnapSuffix, func(w io.Writer) error {
			return persist.SaveAt(w, inner, snapTs)
		})
		if err != nil {
			return fmt.Errorf("tierdb: checkpoint %s: %w", inner.Name(), err)
		}
	}
	return db.wal.EndCheckpoint(snapTs)
}
