package tierdb

import (
	"fmt"

	"tierdb/internal/forecast"
	"tierdb/internal/persist"
	"tierdb/internal/table"
	"tierdb/internal/workload"
)

// ForecastOptions tunes workload prediction (paper Section VI: feed the
// model with anticipated instead of historical query frequencies).
type ForecastOptions = forecast.Options

// Forecast methods.
const (
	// ForecastSES uses simple exponential smoothing.
	ForecastSES = forecast.MethodSES
	// ForecastHolt adds a linear trend (default).
	ForecastHolt = forecast.MethodHolt
	// ForecastLastWindow uses the newest window verbatim.
	ForecastLastWindow = forecast.MethodLastWindow
	// ForecastMean averages all windows.
	ForecastMean = forecast.MethodMean
)

// CloseWorkloadWindow freezes the current workload window into the
// table's history (moving-window tracking). Call it at fixed intervals
// — e.g. daily — so RecommendForecastLayout can extrapolate per-plan
// frequency trends.
func (t *Table) CloseWorkloadWindow() {
	t.plans.Rotate()
}

// WorkloadWindows returns the number of closed workload windows.
func (t *Table) WorkloadWindows() int { return t.plans.History().Windows() }

// RecommendForecastLayout predicts the next window's query frequencies
// from the table's workload history and optimizes the placement for the
// anticipated workload. At least one window must be closed.
func (t *Table) RecommendForecastLayout(opts PlacementOptions, fopts ForecastOptions) (Layout, error) {
	series := t.plans.History().Series()
	if len(series) == 0 {
		return Layout{}, fmt.Errorf("tierdb: no closed workload windows to forecast from")
	}
	// Template: one query per distinct plan; frequencies filled by the
	// forecast.
	plans := make([]workload.Plan, len(series))
	fseries := make([]forecast.Series, len(series))
	for i, s := range series {
		plans[i] = workload.Plan{Columns: s.Columns, Count: 1}
		fseries[i] = forecast.Series(s.Counts)
	}
	template, err := t.model(plans, opts.Pinned)
	if err != nil {
		return Layout{}, err
	}
	predicted, err := forecast.PredictWorkload(template, fseries, fopts)
	if err != nil {
		return Layout{}, err
	}
	return Solve(predicted, t.defaults(predicted, opts))
}

// Snapshot persists the table (schema, layout, index definitions, all
// visible rows) to a file; restore with DB.RestoreTable.
func (t *Table) Snapshot(path string) error {
	return persist.SaveFile(path, t.inner)
}

// RestoreTable loads a table snapshot into this database, re-tiering it
// onto the database's device and registering it under its saved name.
// With a WAL configured the restored table is made durable by an
// immediate checkpoint (its rows are not in the log).
func (db *DB) RestoreTable(path string) (*Table, error) {
	inner, err := persist.LoadFile(path, db.tableOptions())
	if err != nil {
		return nil, err
	}
	db.mu.Lock()
	if _, exists := db.tables[inner.Name()]; exists {
		db.mu.Unlock()
		return nil, fmt.Errorf("tierdb: table %q already exists", inner.Name())
	}
	t := newTableHandle(db, inner)
	db.tables[inner.Name()] = t
	db.mu.Unlock()
	if db.wal != nil {
		if err := db.Checkpoint(); err != nil {
			db.mu.Lock()
			delete(db.tables, inner.Name())
			db.mu.Unlock()
			return nil, fmt.Errorf("tierdb: restored table not durable: %w", err)
		}
	}
	return t, nil
}

// CreateCompositeIndex builds a DRAM-resident multi-column index over
// the named columns (order-preserving key encoding over a B+-tree).
func (t *Table) CreateCompositeIndex(columns ...string) error {
	cols, err := t.resolve(columns)
	if err != nil {
		return err
	}
	if err := t.inner.CreateCompositeIndex(cols); err != nil {
		return err
	}
	if t.db.wal != nil {
		return t.db.wal.AppendIndex(t.Name(), cols)
	}
	return nil
}

// LookupComposite returns the rows whose column tuple equals key, via a
// previously created composite index.
func (t *Table) LookupComposite(columns []string, key []Value) ([]RowID, error) {
	cols, err := t.resolve(columns)
	if err != nil {
		return nil, err
	}
	v, snapshot := t.inner.PinLatest()
	defer v.Release()
	return v.LookupComposite(cols, key, snapshot, 0)
}

// newTableHandle wraps an engine table in the public handle (shared by
// CreateTable and RestoreTable).
func newTableHandle(db *DB, inner *table.Table) *Table {
	return &Table{
		db:    db,
		inner: inner,
		plans: workload.NewPlanCache(),
		exec:  newExecutor(db, inner),
	}
}
