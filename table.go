package tierdb

import (
	"context"
	"errors"
	"fmt"

	"tierdb/internal/exec"
	"tierdb/internal/mvcc"
	"tierdb/internal/table"
	"tierdb/internal/trace"
	"tierdb/internal/value"
	"tierdb/internal/workload"
)

// Table is the public handle of a tiered table. Queries executed through
// Select feed the table's plan cache, which RecommendLayout analyzes.
type Table struct {
	db    *DB
	inner *table.Table
	plans *workload.PlanCache
	exec  *exec.Executor
}

// Predicate is a conjunctive filter; construct with Eq or Between.
type Predicate = exec.Predicate

// Eq builds an equality predicate on the named column.
func (t *Table) Eq(column string, v Value) (Predicate, error) {
	c := t.inner.Schema().IndexOf(column)
	if c < 0 {
		return Predicate{}, fmt.Errorf("tierdb: table %s has no column %q", t.inner.Name(), column)
	}
	return Predicate{Column: c, Op: exec.Eq, Value: v}, nil
}

// Between builds an inclusive range predicate on the named column.
func (t *Table) Between(column string, lo, hi Value) (Predicate, error) {
	c := t.inner.Schema().IndexOf(column)
	if c < 0 {
		return Predicate{}, fmt.Errorf("tierdb: table %s has no column %q", t.inner.Name(), column)
	}
	return Predicate{Column: c, Op: exec.Between, Value: lo, Hi: hi}, nil
}

// Name returns the table name.
func (t *Table) Name() string { return t.inner.Name() }

// Columns returns the schema fields.
func (t *Table) Columns() []Field { return t.inner.Schema().Fields() }

// Rows returns the number of rows visible at the latest snapshot.
func (t *Table) Rows() int { return t.inner.VisibleCount() }

// BulkLoad appends rows outside any transaction and merges them into
// the main partition under the current layout. With a WAL configured
// the whole batch is one atomic, durable commit record. An error means
// the batch did not take effect: a row that does not fit the schema
// fails the whole batch before any row is logged or appended. A nil return means it is committed and
// visible; it is also merged unless another merge of the table was in
// flight, in which case the scheduler folds it afterwards.
func (t *Table) BulkLoad(rows [][]Value) error {
	return t.BulkLoadCtx(context.Background(), rows)
}

// BulkLoadCtx is BulkLoad with a context; a request trace span carried
// by ctx receives the WAL commit children plus a "merge.wait" span
// covering the delta-to-main merge.
func (t *Table) BulkLoadCtx(ctx context.Context, rows [][]Value) error {
	if t.db.wal == nil || len(rows) == 0 {
		if err := t.inner.BulkAppend(rows); err != nil {
			return err
		}
		return t.mergeCtx(ctx)
	}
	ops := make([]mvcc.RedoOp, len(rows))
	for i, r := range rows {
		// A row the delta would refuse fails the load before anything is
		// logged: a logged batch is replayed by every later Open.
		if err := t.inner.Schema().CheckRow(r); err != nil {
			return fmt.Errorf("tierdb: bulk load row %d: %w", i, err)
		}
		ops[i] = mvcc.RedoOp{Table: t.Name(), Row: r}
	}
	_, err := t.db.mgr.BulkCommitCtx(ctx, ops, func(ts mvcc.Timestamp) error {
		return t.inner.BulkAppendAt(rows, ts)
	})
	if err != nil {
		return err
	}
	return t.mergeCtx(ctx)
}

// mergeCtx merges the delta partition under a "merge.wait" child span
// of the request trace (if any): the caller's wall-clock time spent
// waiting for the merge to complete. By the time it runs the batch is
// committed and readable from the delta, so a merge that is already in
// flight (the scheduler's, say) is no failure of the load: the table is
// handed to the scheduler, which folds the batch once that merge drains.
// A database closing under the load keeps the batch in its delta.
func (t *Table) mergeCtx(ctx context.Context) error {
	span := trace.FromContext(ctx).Child("merge.wait", trace.String("table", t.Name()))
	err := t.inner.Merge()
	if errors.Is(err, ErrMergeInProgress) {
		_ = t.MergeAsync()
		err = nil
	}
	span.SetError(err)
	span.End()
	return err
}

// Insert appends one row in its own transaction.
func (t *Table) Insert(row []Value) error {
	return t.InsertCtx(context.Background(), row)
}

// InsertCtx is Insert with a context; a request trace span carried by
// ctx receives the WAL commit children.
func (t *Table) InsertCtx(ctx context.Context, row []Value) error {
	return t.db.autocommit(ctx, func(tx *Tx) error { return t.InsertTx(tx, row) })
}

// InsertTx appends one row within an existing transaction.
func (t *Table) InsertTx(tx *Tx, row []Value) error {
	if err := t.inner.Insert(tx, row); err != nil {
		return err
	}
	if t.db.wal != nil {
		tx.LogRedo(mvcc.RedoOp{Table: t.Name(), Row: append([]Value(nil), row...)})
	}
	return nil
}

// Delete removes a row within a transaction.
func (t *Table) Delete(tx *Tx, id RowID) error {
	if t.db.wal == nil {
		return t.inner.Delete(tx, id)
	}
	// Redo records are content-addressed (row ids do not survive a
	// merge), so the record must carry the tuple of the very row that got
	// the delete intent: one call reads and marks it, with no merge swap
	// in between to renumber id.
	tuple, err := t.inner.DeleteReturning(tx, id)
	if err != nil {
		return err
	}
	tx.LogRedo(mvcc.RedoOp{Table: t.Name(), Delete: true, Row: tuple})
	return nil
}

// Update replaces a row within a transaction (insert-only: delete +
// insert).
func (t *Table) Update(tx *Tx, id RowID, row []Value) error {
	if t.db.wal == nil {
		return t.inner.Update(tx, id, row)
	}
	if err := t.Delete(tx, id); err != nil {
		return err
	}
	return t.InsertTx(tx, row)
}

// SelectResult carries qualifying row ids and projected rows.
type SelectResult = exec.Result

// Select runs a conjunctive filter query at the latest snapshot (tx may
// be nil) projecting the named columns (none = positions only). The
// filtered column set is recorded in the plan cache for the placement
// optimizer.
func (t *Table) Select(tx *Tx, predicates []Predicate, project ...string) (*SelectResult, error) {
	return t.SelectCtx(context.Background(), tx, predicates, project...)
}

// SelectCtx is Select with a context; a request trace span carried by
// ctx receives the executor's "exec.query" child span family.
func (t *Table) SelectCtx(ctx context.Context, tx *Tx, predicates []Predicate, project ...string) (*SelectResult, error) {
	q, err := t.prepQuery(predicates, project)
	if err != nil {
		return nil, err
	}
	return t.exec.RunCtx(ctx, q, tx)
}

// prepQuery resolves projection names, records the filtered column set
// in the plan cache (lifetime counts and open workload window at once)
// and builds the exec query.
func (t *Table) prepQuery(predicates []Predicate, project []string) (exec.Query, error) {
	q, err := t.resolveQuery(predicates, project)
	if err != nil {
		return exec.Query{}, err
	}
	if len(predicates) > 0 {
		var buf [8]int
		cols := buf[:0]
		for _, p := range predicates {
			cols = append(cols, p.Column)
		}
		t.plans.Record(cols)
	}
	return q, nil
}

// resolveQuery resolves projection names without recording the query
// into the plan cache — plan-only introspection (Table.Explain) must
// not disturb the workload the advisor extracts.
func (t *Table) resolveQuery(predicates []Predicate, project []string) (exec.Query, error) {
	proj := make([]int, 0, len(project))
	for _, name := range project {
		c := t.inner.Schema().IndexOf(name)
		if c < 0 {
			return exec.Query{}, fmt.Errorf("tierdb: table %s has no column %q", t.inner.Name(), name)
		}
		proj = append(proj, c)
	}
	return exec.Query{Predicates: predicates, Project: proj}, nil
}

// Get reconstructs a full tuple by row id.
func (t *Table) Get(id RowID) ([]Value, error) {
	return t.exec.Reconstruct(id)
}

// GetValue reads one cell.
func (t *Table) GetValue(id RowID, column string) (Value, error) {
	c := t.inner.Schema().IndexOf(column)
	if c < 0 {
		return value.Value{}, fmt.Errorf("tierdb: table %s has no column %q", t.inner.Name(), column)
	}
	return t.inner.GetValue(id, c)
}

// Sum aggregates a numeric column over the given rows.
func (t *Table) Sum(column string, ids []RowID) (float64, error) {
	c := t.inner.Schema().IndexOf(column)
	if c < 0 {
		return 0, fmt.Errorf("tierdb: table %s has no column %q", t.inner.Name(), column)
	}
	return t.exec.Sum(c, ids)
}

// CreateIndex builds a DRAM-resident group-key index over the named
// column's main partition — its rows grouped by dictionary code
// (indexes are never evicted).
func (t *Table) CreateIndex(column string) error {
	c := t.inner.Schema().IndexOf(column)
	if c < 0 {
		return fmt.Errorf("tierdb: table %s has no column %q", t.inner.Name(), column)
	}
	if err := t.inner.CreateIndex(c); err != nil {
		return err
	}
	if t.db.wal != nil {
		return t.db.wal.AppendIndex(t.Name(), []int{c})
	}
	return nil
}

// Merge folds the delta partition into the main partition under the
// current layout.
func (t *Table) Merge() error { return t.inner.Merge() }

// Layout reports per column whether it is DRAM-resident (MRC).
func (t *Table) Layout() []bool { return t.inner.Layout() }

// MemoryBytes returns the table's DRAM footprint.
func (t *Table) MemoryBytes() int64 { return t.inner.MemoryBytes() }

// SecondaryBytes returns the table's secondary-storage footprint.
func (t *Table) SecondaryBytes() int64 { return t.inner.SecondaryBytes() }

// PlanCache exposes the recorded workload (distinct plans and counts).
func (t *Table) PlanCache() *workload.PlanCache { return t.plans }

// Inner exposes the underlying storage-engine table for advanced use
// (experiments, benchmarks).
func (t *Table) Inner() *table.Table { return t.inner }

// Executor exposes the table's query executor for advanced use.
func (t *Table) Executor() *exec.Executor { return t.exec }

// GroupBySum groups the given rows by one column and sums a numeric
// column within each group.
func (t *Table) GroupBySum(groupColumn, sumColumn string, ids []RowID) (map[Value]float64, error) {
	g := t.inner.Schema().IndexOf(groupColumn)
	if g < 0 {
		return nil, fmt.Errorf("tierdb: table %s has no column %q", t.inner.Name(), groupColumn)
	}
	a := t.inner.Schema().IndexOf(sumColumn)
	if a < 0 {
		return nil, fmt.Errorf("tierdb: table %s has no column %q", t.inner.Name(), sumColumn)
	}
	return t.exec.GroupBySum(g, a, ids)
}
