package tierdb

import (
	"context"
	"net"

	"tierdb/internal/server"
	"tierdb/internal/value"
)

// Network service errors, re-exported for callers of the client
// package that only import tierdb.
var (
	// ErrOverloaded is how the service layer sheds load when admission
	// control (Config.MaxSessions / Config.MaxInflight) is saturated.
	ErrOverloaded = server.ErrOverloaded
	// ErrDraining answers requests that arrive during graceful
	// shutdown.
	ErrDraining = server.ErrDraining
)

// Serve serves the tierdb wire protocol on the given listener until the
// database is closed. It blocks; run it in a goroutine when the caller
// owns the listener (Config.ListenAddr does this automatically).
func (db *DB) Serve(l net.Listener) error {
	db.obsMu.Lock()
	if db.srvAddr == "" {
		db.srvAddr = l.Addr().String()
	}
	db.obsMu.Unlock()
	return db.srv.Serve(l)
}

// ServerAddr returns the address the service layer is listening on
// ("host:port"), or "" when no listener is serving. With ListenAddr
// ":0" this reports the actual port.
func (db *DB) ServerAddr() string {
	db.obsMu.Lock()
	defer db.obsMu.Unlock()
	return db.srvAddr
}

// dbEngine adapts *DB to the service layer's engine interface. It lives
// in the root package so internal/server stays root-decoupled (and
// testable against fakes).
type dbEngine struct {
	db *DB
}

func (e dbEngine) CreateTable(ctx context.Context, name string, fields []Field) error {
	_, err := e.db.CreateTable(name, fields)
	return err
}

func (e dbEngine) Insert(ctx context.Context, table string, row []value.Value) error {
	t, err := e.db.Table(table)
	if err != nil {
		return err
	}
	return t.InsertCtx(ctx, row)
}

func (e dbEngine) Delete(ctx context.Context, table string, id uint64) error {
	t, err := e.db.Table(table)
	if err != nil {
		return err
	}
	return e.db.autocommit(ctx, func(tx *Tx) error { return t.Delete(tx, id) })
}

func (e dbEngine) Update(ctx context.Context, table string, id uint64, row []value.Value) error {
	t, err := e.db.Table(table)
	if err != nil {
		return err
	}
	return e.db.autocommit(ctx, func(tx *Tx) error { return t.Update(tx, id, row) })
}

func (e dbEngine) BulkLoad(ctx context.Context, table string, rows [][]value.Value) error {
	t, err := e.db.Table(table)
	if err != nil {
		return err
	}
	return t.BulkLoadCtx(ctx, rows)
}

func (e dbEngine) Select(ctx context.Context, table string, preds []server.Predicate, project []string) (*server.Result, error) {
	t, err := e.db.Table(table)
	if err != nil {
		return nil, err
	}
	ps := make([]Predicate, 0, len(preds))
	for _, p := range preds {
		var pred Predicate
		var err error
		if p.Op == server.PredBetween {
			pred, err = t.Between(p.Column, p.Value, p.Hi)
		} else {
			pred, err = t.Eq(p.Column, p.Value)
		}
		if err != nil {
			return nil, err
		}
		ps = append(ps, pred)
	}
	res, err := t.SelectCtx(ctx, nil, ps, project...)
	if err != nil {
		return nil, err
	}
	return (*server.Result)(res), nil // the same fields: row ids and rows
}

func (e dbEngine) Checkpoint(ctx context.Context) error { return e.db.Checkpoint() }

func (e dbEngine) Rows(table string) (int, error) {
	t, err := e.db.Table(table)
	if err != nil {
		return 0, err
	}
	return t.Rows(), nil
}

func (e dbEngine) Tables() []string { return e.db.Tables() }

func (e dbEngine) ApplyLayout(table string, inDRAM []bool) error {
	t, err := e.db.Table(table)
	if err != nil {
		return err
	}
	return t.ApplyLayout(Layout{InDRAM: inDRAM})
}

func (e dbEngine) Adaptive(enable bool) error {
	e.db.SetAdaptive(enable)
	return nil
}
