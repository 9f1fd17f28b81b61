package persist

import (
	"fmt"
	"slices"

	"tierdb/internal/mvcc"
	"tierdb/internal/schema"
	"tierdb/internal/table"
	"tierdb/internal/wal"
)

// Recover rebuilds the committed state a write-ahead-log directory
// holds: every checkpoint snapshot is loaded at its embedded snapshot
// timestamp, then the log replays on top, skipping per table whatever
// its snapshot already covers, and opts.Manager, which every table
// shares and which must be set, is advanced past the newest logged
// timestamp. It returns the tables by name and the replay's statistics.
// Replay also repairs the directory for a new log (see wal.Replay).
func Recover(fs wal.FS, dir string, opts table.Options) (map[string]*table.Table, wal.ReplayStats, error) {
	r := &replayer{opts: opts, tables: make(map[string]*table.Table), snapTs: make(map[string]mvcc.Timestamp)}
	snaps, err := wal.ListSnapshots(fs, dir)
	if err != nil {
		return nil, wal.ReplayStats{}, fmt.Errorf("persist: list snapshots: %w", err)
	}
	for _, name := range snaps {
		rc, err := fs.Open(dir + "/" + name)
		if err != nil {
			return nil, wal.ReplayStats{}, fmt.Errorf("persist: open snapshot %s: %w", name, err)
		}
		tbl, snapTs, err := LoadAt(rc, opts)
		rc.Close()
		if err != nil {
			return nil, wal.ReplayStats{}, fmt.Errorf("persist: snapshot %s: %w", name, err)
		}
		r.tables[tbl.Name()] = tbl
		r.snapTs[tbl.Name()] = snapTs
	}
	stats, err := wal.Replay(fs, dir, r)
	if err != nil {
		return nil, stats, err
	}
	opts.Manager.AdvanceTo(stats.MaxTs)
	return r.tables, stats, nil
}

// replayer applies decoded log records to the tables being recovered.
// Ops at or below a table's snapshot timestamp are already in its
// checkpoint snapshot and replay as no-ops.
type replayer struct {
	opts   table.Options
	tables map[string]*table.Table
	snapTs map[string]mvcc.Timestamp
}

func (r *replayer) table(name string) (*table.Table, error) {
	if t, ok := r.tables[name]; ok {
		return t, nil
	}
	return nil, fmt.Errorf("persist: replay references unknown table %q", name)
}

func (r *replayer) CreateTable(name string, fields []schema.Field) error {
	if _, exists := r.tables[name]; exists {
		return nil // restored from a checkpoint snapshot already
	}
	s, err := schema.New(fields)
	if err != nil {
		return fmt.Errorf("persist: replay create table %q: %w", name, err)
	}
	t, err := table.New(name, s, r.opts)
	if err != nil {
		return err
	}
	r.tables[name] = t
	return nil
}

func (r *replayer) ApplyLayout(name string, layout []bool) error {
	t, err := r.table(name)
	if err != nil {
		return err
	}
	return t.ApplyLayout(layout)
}

func (r *replayer) CreateIndex(name string, cols []int) error {
	t, err := r.table(name)
	if err != nil {
		return err
	}
	if len(cols) == 1 {
		return t.CreateIndex(cols[0])
	}
	return t.CreateCompositeIndex(cols)
}

// Commit re-applies one logged commit table by table, each table's
// inserts as one batch.
func (r *replayer) Commit(ts mvcc.Timestamp, ops []mvcc.RedoOp) error {
	var done []string
	for _, op := range ops {
		if slices.Contains(done, op.Table) || ts <= r.snapTs[op.Table] {
			continue // replayed already, or covered by the table's checkpoint snapshot
		}
		done = append(done, op.Table)
		t, err := r.table(op.Table)
		if err != nil {
			return err
		}
		if err := t.ReplayCommit(ts, ops); err != nil {
			return err
		}
	}
	return nil
}
