package tierdb

import (
	"fmt"
	"io"
	"time"

	"tierdb/internal/device"
	"tierdb/internal/persist"
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
		GroupInterval: cfg.groupInterval,
		Registry:      db.registry,
	})
	if err != nil {
		return err
	}
	db.wal = log
	db.mgr.SetDurability(log)
	return nil
}

// recover rebuilds committed state with persist.Recover — checkpoint
// snapshots, then the log on top — and registers the tables; it runs
// inside Open, before anything else can reach db.tables. Log replay is
// reported via the wal.recovery_ns metric as modeled DRAM
// sequential-read time over the replayed bytes, which keeps the number
// machine-independent.
func (db *DB) recover(fs wal.FS, dir string) error {
	tables, stats, err := persist.Recover(fs, dir, db.tableOptions())
	if err != nil {
		return err
	}
	for name, inner := range tables {
		db.tables[name] = newTableHandle(db, inner)
	}
	db.registry.Counter("wal.replayed_records").Add(int64(stats.Records))
	db.registry.Counter("wal.replayed_bytes").Add(stats.Bytes)
	// Modeled, deterministic recovery time: DRAM sequential read of the
	// replayed log bytes (single threaded, as replay is).
	db.registry.Counter("wal.recovery_ns").Add(int64(device.DRAM.SequentialReadTime(stats.Bytes, 1) / time.Nanosecond))
	return nil
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
