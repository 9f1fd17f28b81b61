package wal

import (
	"fmt"
	"io"
	"strings"

	"tierdb/internal/mvcc"
	"tierdb/internal/schema"
)

// ReplayHandler receives decoded records in exact log order. The
// handler decides idempotence (e.g. skipping commits already covered by
// a loaded snapshot); Replay only guarantees order and integrity.
type ReplayHandler interface {
	// CreateTable replays a table creation; called with the logged
	// schema. Must tolerate the table already existing (a checkpoint
	// snapshot may have restored it first).
	CreateTable(name string, fields []schema.Field) error
	// ApplyLayout replays a layout change.
	ApplyLayout(name string, layout []bool) error
	// CreateIndex replays an index creation (len(cols)==1 is a
	// single-column index).
	CreateIndex(name string, cols []int) error
	// Commit replays one committed transaction's redo ops.
	Commit(ts mvcc.Timestamp, ops []mvcc.RedoOp) error
}

// ReplayStats summarizes a recovery pass for metrics and tests.
type ReplayStats struct {
	// Segments is how many log segments were read.
	Segments int
	// Records is how many records were replayed.
	Records int
	// Bytes is the total segment bytes scanned; recovery-time models
	// are driven by it.
	Bytes int64
	// TornBytes is the size of the torn tail truncated from the final
	// segment (0 when the log ended cleanly).
	TornBytes int64
	// MaxTs is the highest timestamp seen in any record; the
	// transaction manager must be advanced past it before reuse.
	MaxTs mvcc.Timestamp
}

// Replay reads every log segment in dir in order, delivers each record
// to h, and repairs the log for reuse: a torn tail in the FINAL segment
// is truncated away (the crash interrupted the last write), and
// leftover snapshot temp files are removed. A torn or corrupt record
// anywhere else cannot be produced by a crash — sealed segments are
// fully synced before a new one is opened — so it fails the replay.
func Replay(fs FS, dir string, h ReplayHandler) (ReplayStats, error) {
	var stats ReplayStats
	if err := fs.MkdirAll(dir); err != nil {
		return stats, fmt.Errorf("wal: mkdir %s: %w", dir, err)
	}
	names, err := fs.ReadDir(dir)
	if err != nil {
		return stats, fmt.Errorf("wal: list %s: %w", dir, err)
	}
	var segs []string
	for _, name := range names {
		if segSeq(name) >= 0 {
			segs = append(segs, name)
		}
		if strings.HasSuffix(name, tmpSuffix) {
			if err := fs.Remove(joinDir(dir, name)); err != nil {
				return stats, fmt.Errorf("wal: remove stale temp %s: %w", name, err)
			}
		}
	}
	// ReadDir sorts lexically and segment names are fixed-width
	// zero-padded, so segs is already in sequence order.
	for i, name := range segs {
		path := joinDir(dir, name)
		f, err := fs.Open(path)
		if err != nil {
			return stats, fmt.Errorf("wal: open segment %s: %w", name, err)
		}
		data, err := io.ReadAll(f)
		f.Close()
		if err != nil {
			return stats, fmt.Errorf("wal: read segment %s: %w", name, err)
		}
		recs, tornAt, err := decodeSegment(data)
		if err != nil {
			return stats, fmt.Errorf("wal: segment %s: %w", name, err)
		}
		if tornAt < len(data) {
			if i != len(segs)-1 {
				return stats, fmt.Errorf("wal: segment %s: %w: torn record in sealed segment", name, ErrBadRecord)
			}
			stats.TornBytes = int64(len(data) - tornAt)
			if err := fs.Truncate(path, int64(tornAt)); err != nil {
				return stats, fmt.Errorf("wal: truncate torn tail of %s: %w", name, err)
			}
		}
		stats.Segments++
		stats.Bytes += int64(tornAt)
		for _, rec := range recs {
			if mvcc.Timestamp(rec.Ts) > stats.MaxTs {
				stats.MaxTs = mvcc.Timestamp(rec.Ts)
			}
			if err := deliver(h, rec); err != nil {
				return stats, fmt.Errorf("wal: replay %s: %w", name, err)
			}
			stats.Records++
		}
	}
	return stats, nil
}

func deliver(h ReplayHandler, rec Record) error {
	switch rec.Kind {
	case kindCommit:
		return h.Commit(mvcc.Timestamp(rec.Ts), rec.Ops)
	case kindCreateTable:
		return h.CreateTable(rec.Table, rec.Fields)
	case kindLayout:
		return h.ApplyLayout(rec.Table, rec.Layout)
	case kindIndex:
		return h.CreateIndex(rec.Table, rec.Cols)
	case kindCheckpointBegin, kindCheckpointEnd:
		// Nothing to apply: each snapshot carries its own timestamp, and
		// checkpoint-end licensed the truncation that already happened.
	}
	return nil
}

// ListSnapshots returns the checkpoint snapshot file names (not paths)
// in dir, sorted, ignoring temp files and log segments.
func ListSnapshots(fs FS, dir string) ([]string, error) {
	if err := fs.MkdirAll(dir); err != nil {
		return nil, err
	}
	names, err := fs.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var snaps []string
	for _, name := range names {
		if strings.HasSuffix(name, SnapSuffix) {
			snaps = append(snaps, name)
		}
	}
	return snaps, nil
}
